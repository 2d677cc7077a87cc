// Swarm delivery: the paper's motivating Figure 1 as running code.
//
// A source S and five end-systems A..E. The tree topology (Figure 1(a))
// delivers content at the bottleneck rate; adding collaborative
// "perpendicular" peer connections (Figure 1(c)) with informed transfers
// lets peers fill in each other's gaps and finish much sooner.
//
// The example runs the same workload twice — tree only, then tree plus
// informed peer collaboration (admission-controlled by min-wise sketches) —
// and prints the round at which each node completes.
//
// Build & run:  ./examples/swarm_delivery
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/admission.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "util/random.hpp"

namespace {

using namespace icd;

constexpr std::size_t kBlocks = 400;
constexpr std::size_t kBlockSize = 64;
constexpr std::size_t kPeers = 5;
// Tree edges (parent -> child) mirroring Figure 1(a):
//   S -> A, S -> B, A -> C, A -> D, B -> E
constexpr int kParent[kPeers] = {-1, -1, 0, 0, 1};
// Per-edge capacities in symbols/round; the leaves sit behind bottlenecks.
constexpr int kTreeRate[kPeers] = {3, 3, 1, 1, 1};

struct Swarm {
  std::vector<std::uint8_t> file;
  std::unique_ptr<core::OriginServer> origin;
  std::vector<core::Peer> peers;

  explicit Swarm(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    file.resize(kBlocks * kBlockSize);
    for (auto& byte : file) byte = static_cast<std::uint8_t>(rng());
    origin = std::make_unique<core::OriginServer>(
        file, kBlockSize, codec::DegreeDistribution::robust_soliton(kBlocks),
        1234);
    const char* names[kPeers] = {"A", "B", "C", "D", "E"};
    for (std::size_t i = 0; i < kPeers; ++i) {
      peers.emplace_back(names[i], origin->parameters(),
                         codec::DegreeDistribution::robust_soliton(kBlocks));
    }
  }

  /// One round of tree traffic: each node receives kTreeRate[i] symbols
  /// from its parent (the source re-encodes; inner nodes forward what they
  /// have via degree-1 recodes of random held symbols).
  void tree_round(util::Xoshiro256& rng) {
    for (std::size_t i = 0; i < kPeers; ++i) {
      for (int r = 0; r < kTreeRate[i]; ++r) {
        if (kParent[i] < 0) {
          peers[i].receive_encoded(origin->next());
        } else {
          core::Peer& parent = peers[static_cast<std::size_t>(kParent[i])];
          if (parent.symbol_count() == 0) continue;
          if (parent.has_content()) {
            peers[i].receive_encoded(parent.encode_fresh());
          } else {
            // Forward a random held symbol (the naive overlay behaviour the
            // paper starts from: end-systems acting like routers).
            const auto& ids = parent.symbol_ids();
            util::Xoshiro256 pick(rng());
            const auto id = ids[pick.next_below(ids.size())];
            peers[i].receive_encoded(
                codec::EncodedSymbol{id, parent.symbol_payload(id)});
          }
        }
      }
    }
  }

  /// One round of collaborative traffic: each incomplete peer picks its
  /// most-novel admissible neighbour by sketch comparison and pulls one
  /// recoded symbol across the perpendicular connection.
  void collab_round(util::Xoshiro256& rng) {
    codec::RecodedSymbol recoded;
    for (std::size_t i = 0; i < kPeers; ++i) {
      core::Peer& receiver = peers[i];
      if (receiver.has_content()) continue;
      std::vector<core::CandidateSender> candidates;
      for (std::size_t j = 0; j < kPeers; ++j) {
        if (j == i || peers[j].symbol_count() == 0) continue;
        candidates.push_back(core::CandidateSender{
            j, &peers[j].sketch(), peers[j].symbol_count()});
      }
      const auto selected =
          core::select_senders(receiver.sketch(), receiver.symbol_count(),
                               candidates, core::AdmissionPolicy{}, 1);
      if (selected.empty()) continue;
      core::Peer& sender = peers[selected.front()];
      const double r = sketch::MinwiseSketch::resemblance(receiver.sketch(),
                                                          sender.sketch());
      const double c = sketch::containment_from_resemblance(
          r, receiver.symbol_count(), sender.symbol_count());
      const auto degree = codec::optimal_recode_degree(
          sender.symbol_count(), c, codec::kDefaultRecodeDegreeLimit);
      sender.recode_into(recoded, degree, rng);
      receiver.receive_recoded(recoded);
    }
  }

  std::size_t complete_count() const {
    std::size_t done = 0;
    for (const auto& peer : peers) done += peer.has_content();
    return done;
  }
};

std::array<std::size_t, kPeers> run(bool collaborate, std::uint64_t seed) {
  Swarm swarm(seed);
  util::Xoshiro256 rng(seed ^ 0xabcdef);
  std::array<std::size_t, kPeers> finish_round{};
  finish_round.fill(0);
  for (std::size_t round = 1; round <= 5000; ++round) {
    swarm.tree_round(rng);
    if (collaborate) swarm.collab_round(rng);
    for (std::size_t i = 0; i < kPeers; ++i) {
      if (finish_round[i] == 0 && swarm.peers[i].has_content()) {
        finish_round[i] = round;
      }
    }
    if (swarm.complete_count() == kPeers) break;
  }
  // Verify every completed peer actually reconstructs the file.
  for (auto& peer : swarm.peers) {
    if (peer.has_content() && peer.content(swarm.file.size()) != swarm.file) {
      std::fprintf(stderr, "CORRUPT content at peer %s\n",
                   peer.name().c_str());
    }
  }
  return finish_round;
}

}  // namespace

int main() {
  std::printf("swarm delivery: %zu blocks, tree S->{A,B}, A->{C,D}, B->E\n",
              kBlocks);
  std::printf("leaf links are 1 symbol/round bottlenecks; root links carry "
              "3/round\n\n");

  const auto tree_only = run(/*collaborate=*/false, 11);
  const auto informed = run(/*collaborate=*/true, 11);

  const char* names[kPeers] = {"A", "B", "C", "D", "E"};
  std::printf("%6s %18s %22s\n", "node", "tree only (round)",
              "tree + informed (round)");
  for (std::size_t i = 0; i < kPeers; ++i) {
    std::printf("%6s %18zu %22zu\n", names[i], tree_only[i], informed[i]);
  }

  std::size_t worst_tree = 0, worst_informed = 0;
  for (std::size_t i = 0; i < kPeers; ++i) {
    worst_tree = std::max(worst_tree, tree_only[i]);
    worst_informed = std::max(worst_informed, informed[i]);
  }
  if (worst_tree == 0) worst_tree = 5000;  // never finished
  std::printf("\nlast finisher: %zu rounds (tree) vs %zu rounds (informed) "
              "— %.1fx faster\n",
              worst_tree, worst_informed,
              static_cast<double>(worst_tree) /
                  static_cast<double>(worst_informed));
  return worst_informed <= worst_tree ? 0 : 1;
}
