// Integration tests for icd::core: origin servers, peers with stacked
// decoders, informed sessions over every strategy, and sketch-based
// admission control. These run the full-fidelity pipeline — real payloads,
// real decoding — end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/origin.hpp"
#include "core/peer.hpp"
#include "core/session.hpp"
#include "util/random.hpp"

namespace icd::core {
namespace {

std::vector<std::uint8_t> random_content(std::size_t size,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> content(size);
  for (auto& byte : content) byte = static_cast<std::uint8_t>(rng());
  return content;
}

struct Fixture {
  static constexpr std::size_t kBlocks = 250;
  static constexpr std::size_t kBlockSize = 24;

  Fixture()
      : content(random_content(kBlocks * kBlockSize - 5, 42)),
        origin(content, kBlockSize,
               codec::DegreeDistribution::robust_soliton(kBlocks), 777) {}

  Peer make_peer(const std::string& name) const {
    return Peer(name, origin.parameters(),
                codec::DegreeDistribution::robust_soliton(kBlocks));
  }

  std::vector<std::uint8_t> content;
  OriginServer origin;
};

TEST(OriginServer, GeometryAndDeterminism) {
  Fixture f;
  EXPECT_EQ(f.origin.block_count(), Fixture::kBlocks);
  EXPECT_EQ(f.origin.block_size(), Fixture::kBlockSize);
  EXPECT_EQ(f.origin.content_size(), f.content.size());
  EXPECT_EQ(f.origin.encode(123).payload, f.origin.encode(123).payload);
}

TEST(OriginServer, ParallelOriginsAreAdditive) {
  // "Additivity": two full senders with different stream seeds supply
  // disjoint symbols, so a client downloading from both needs no
  // orchestration.
  Fixture f;
  OriginServer mirror(f.content, Fixture::kBlockSize,
                      codec::DegreeDistribution::robust_soliton(Fixture::kBlocks),
                      777, /*stream_index=*/1);
  Peer client = f.make_peer("client");
  std::set<std::uint64_t> ids;
  while (!client.has_content()) {
    const auto s1 = f.origin.next();
    const auto s2 = mirror.next();
    EXPECT_TRUE(ids.insert(s1.id).second);
    EXPECT_TRUE(ids.insert(s2.id).second);
    client.receive_encoded(s1);
    client.receive_encoded(s2);
  }
  EXPECT_EQ(client.content(f.content.size()), f.content);
}

TEST(Peer, DecodesFromFountainAndReencodes) {
  Fixture f;
  Peer peer = f.make_peer("a");
  while (!peer.has_content()) peer.receive_encoded(f.origin.next());
  EXPECT_EQ(peer.content(f.content.size()), f.content);

  // Once decoded, the peer is itself a full sender: its re-encoded fresh
  // symbols decode at another peer.
  Peer downstream = f.make_peer("b");
  while (!downstream.has_content()) {
    downstream.receive_encoded(peer.encode_fresh());
  }
  EXPECT_EQ(downstream.content(f.content.size()), f.content);
}

TEST(Peer, EncodeFreshBeforeDecodingThrows) {
  Fixture f;
  Peer peer = f.make_peer("a");
  peer.receive_encoded(f.origin.next());
  EXPECT_THROW(peer.encode_fresh(), std::logic_error);
}

TEST(Peer, RecodedSymbolsCascadeThroughBothDecoders) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  // Sender gets 150 symbols; receiver gets a different 150.
  for (int i = 0; i < 150; ++i) sender.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver.receive_encoded(f.origin.next());

  util::Xoshiro256 rng(1);
  const std::size_t before_blocks = receiver.blocks_recovered();
  // Degrees must be irregular (include some 1s) for peeling to start —
  // fixed degree >= 2 over a disjoint working set can never resolve.
  const auto dist =
      codec::DegreeDistribution::robust_soliton(150).truncated(50);
  std::size_t gained = 0;
  codec::RecodedSymbol symbol;
  for (int i = 0; i < 400; ++i) {
    sender.recode_into(symbol, dist.sample(rng), rng);
    gained += receiver.receive_recoded(symbol);
  }
  EXPECT_GT(gained, 0u);
  EXPECT_GE(receiver.blocks_recovered(), before_blocks);
  EXPECT_EQ(receiver.symbol_count(), 150 + gained);
}

// XOR of the given held symbols, as a sender would recode them.
codec::RecodedSymbol blend(const Peer& holder,
                           std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  codec::RecodedSymbol symbol;
  for (const std::uint64_t id : ids) {
    codec::xor_into(symbol.payload, holder.symbol_payload(id));
  }
  symbol.constituents = std::move(ids);
  return symbol;
}

/// Reference recoder by ids: the draw recode_slots_into makes over
/// `domain` (util::sample_without_replacement, degree clamped to the
/// domain), resolved through the hashed payload lookup instead of slots.
codec::RecodedSymbol recode_by_ids(const Peer& holder,
                                   const std::vector<std::uint64_t>& domain,
                                   std::size_t degree, util::Xoshiro256& rng) {
  const std::size_t d = std::clamp<std::size_t>(degree, 1, domain.size());
  std::vector<std::uint64_t> ids;
  for (const std::uint64_t pick :
       util::sample_without_replacement(domain.size(), d, rng)) {
    ids.push_back(domain[pick]);
  }
  return blend(holder, std::move(ids));
}

void expect_slots_follow_ids(const Peer& peer) {
  const auto& ids = peer.symbol_ids();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ASSERT_EQ(peer.symbol_slot(ids[k]), k);
    EXPECT_EQ(peer.slot_payload(static_cast<std::uint32_t>(k)),
              peer.symbol_payload(ids[k]));
  }
}

TEST(Peer, SlotsFollowSymbolIds) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  for (int i = 0; i < 40; ++i) sender.receive_encoded(f.origin.next());
  const auto& held = sender.symbol_ids();
  for (int i = 0; i < 10; ++i) {
    receiver.receive_encoded(
        codec::EncodedSymbol{held[i], sender.symbol_payload(held[i])});
  }
  expect_slots_follow_ids(receiver);

  // A chain of degree-2 symbols buffers (two unknowns each) until its
  // first link lands; that one arrival then cascades through the chain,
  // recovering several ids in a single receive call.
  for (std::size_t i = 11; i < 16; ++i) {
    EXPECT_EQ(receiver.receive_recoded(blend(sender, {held[i], held[i + 1]})),
              0u);
  }
  EXPECT_EQ(receiver.receive_recoded(blend(sender, {held[9], held[11]})), 6u);
  expect_slots_follow_ids(receiver);

  // A second, interleaved cascade, then plain arrivals after it.
  EXPECT_EQ(receiver.receive_recoded(blend(sender, {held[20], held[21]})), 0u);
  EXPECT_EQ(receiver.receive_recoded(blend(sender, {held[19], held[20]})), 0u);
  EXPECT_EQ(receiver.receive_recoded(blend(sender, {held[0], held[19]})), 3u);
  for (std::size_t i = 30; i < 40; ++i) {
    receiver.receive_encoded(
        codec::EncodedSymbol{held[i], sender.symbol_payload(held[i])});
  }
  EXPECT_EQ(receiver.symbol_count(), 29u);
  expect_slots_follow_ids(receiver);
  expect_slots_follow_ids(sender);
}

TEST(Peer, RecodeBySlotsMatchesRecodeByIds) {
  Fixture f;
  Peer peer = f.make_peer("sender");
  for (int i = 0; i < 200; ++i) peer.receive_encoded(f.origin.next());

  util::Xoshiro256 picker(9);
  codec::RecodedSymbol by_slots;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    // A random sorted domain of held ids, as a handshake builds one.
    std::vector<std::uint64_t> domain;
    for (const std::uint64_t id : peer.symbol_ids()) {
      if (picker.next_below(4) == 0) domain.push_back(id);
    }
    if (trial % 10 == 0) domain.resize(std::min<std::size_t>(domain.size(), 3));
    if (domain.empty()) domain.push_back(peer.symbol_ids().front());
    std::sort(domain.begin(), domain.end());
    std::vector<std::uint32_t> slots;
    for (const std::uint64_t id : domain) slots.push_back(peer.symbol_slot(id));
    // Degrees beyond the domain size and the recode cap are clamped alike.
    const std::size_t degree = 1 + picker.next_below(70);

    util::Xoshiro256 rng_ids(trial);
    util::Xoshiro256 rng_slots(trial);
    const auto by_ids = recode_by_ids(peer, domain, degree, rng_ids);
    peer.recode_slots_into(by_slots, slots, degree, rng_slots);
    EXPECT_EQ(by_slots.constituents, by_ids.constituents);
    EXPECT_EQ(by_slots.payload, by_ids.payload);
    EXPECT_EQ(rng_slots(), rng_ids());

    // The slot reads agree with the hashed payload lookup.
    std::vector<std::uint8_t> expected;
    for (const std::uint64_t id : by_slots.constituents) {
      EXPECT_TRUE(std::binary_search(domain.begin(), domain.end(), id));
      codec::xor_into(expected, peer.symbol_payload(id));
    }
    EXPECT_EQ(by_slots.payload, expected);

    // The whole working set is slots 0..n-1 in symbol_ids() order.
    util::Xoshiro256 rng_whole(trial);
    util::Xoshiro256 rng_all_ids(trial);
    peer.recode_into(by_slots, degree, rng_whole);
    const auto all =
        recode_by_ids(peer, peer.symbol_ids(), degree, rng_all_ids);
    EXPECT_EQ(by_slots.constituents, all.constituents);
    EXPECT_EQ(by_slots.payload, all.payload);
    EXPECT_EQ(rng_whole(), rng_all_ids());
  }
}

TEST(Peer, RecodeDrawsDistinctConstituentsWithXorPayload) {
  Fixture f;
  Peer peer = f.make_peer("sender");
  for (int i = 0; i < 30; ++i) peer.receive_encoded(f.origin.next());
  util::Xoshiro256 rng(15);
  codec::RecodedSymbol recoded;
  const std::vector<std::uint32_t> slots{3, 7, 11, 19, 23, 29};
  for (int trial = 0; trial < 20; ++trial) {
    peer.recode_slots_into(recoded, slots, 5, rng);
    EXPECT_EQ(recoded.degree(), 5u);
    EXPECT_TRUE(std::is_sorted(recoded.constituents.begin(),
                               recoded.constituents.end()));
    EXPECT_EQ(std::adjacent_find(recoded.constituents.begin(),
                                 recoded.constituents.end()),
              recoded.constituents.end());
    // Payload = XOR of the constituent payloads, all drawn from the domain.
    std::vector<std::uint8_t> expected;
    for (const std::uint64_t id : recoded.constituents) {
      const std::uint32_t slot = peer.symbol_slot(id);
      EXPECT_NE(std::find(slots.begin(), slots.end(), slot), slots.end());
      codec::xor_into(expected, peer.symbol_payload(id));
    }
    EXPECT_EQ(recoded.payload, expected);
  }
}

TEST(Peer, RecodeClampsDegreeAndRejectsEmptyDomains) {
  Fixture f;
  Peer peer = f.make_peer("sender");
  util::Xoshiro256 rng(16);
  codec::RecodedSymbol recoded;
  EXPECT_THROW(peer.recode_into(recoded, 1, rng), std::invalid_argument);
  for (int i = 0; i < 3; ++i) peer.receive_encoded(f.origin.next());
  peer.recode_into(recoded, 50, rng);
  EXPECT_EQ(recoded.degree(), 3u);
  const std::vector<std::uint32_t> two{0, 2};
  peer.recode_slots_into(recoded, two, 50, rng);
  EXPECT_EQ(recoded.degree(), 2u);
  peer.recode_slots_into(recoded, two, 0, rng);
  EXPECT_EQ(recoded.degree(), 1u);
  EXPECT_THROW(peer.recode_slots_into(recoded, {}, 4, rng),
               std::invalid_argument);
  // The slot resolution a sender runs once per session does not ignore:
  // an id outside the working set is a logic error.
  for (int i = 0; i < 30; ++i) {
    EXPECT_THROW(peer.symbol_slot(f.origin.next().id), std::logic_error);
  }
}

TEST(Peer, SketchTracksWorkingSet) {
  Fixture f;
  Peer a = f.make_peer("a");
  Peer b = f.make_peer("b");
  // Same symbols -> identical sketches -> resemblance 1.
  for (int i = 0; i < 100; ++i) {
    const auto symbol = f.origin.next();
    a.receive_encoded(symbol);
    b.receive_encoded(symbol);
  }
  EXPECT_DOUBLE_EQ(
      sketch::MinwiseSketch::resemblance(a.sketch(), b.sketch()), 1.0);
  // Diverge b.
  for (int i = 0; i < 100; ++i) b.receive_encoded(f.origin.next());
  const double r =
      sketch::MinwiseSketch::resemblance(a.sketch(), b.sketch());
  EXPECT_LT(r, 0.75);
  EXPECT_GT(r, 0.25);  // true resemblance 0.5
}

TEST(Peer, MismatchedCodesRejectedBySession) {
  Fixture f;
  Peer a = f.make_peer("a");
  Peer other("other", codec::CodeParameters{Fixture::kBlocks, 999},
             codec::DegreeDistribution::robust_soliton(Fixture::kBlocks));
  EXPECT_THROW(InformedSession(a, other, SessionOptions{}),
               std::invalid_argument);
}

class SessionStrategies
    : public ::testing::TestWithParam<overlay::Strategy> {};

TEST_P(SessionStrategies, PartialSenderDrivesReceiverToDecode) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  // Disjoint working sets; together they exceed what decoding needs.
  for (int i = 0; i < 220; ++i) sender.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = GetParam();
  options.requested_symbols = 200;
  InformedSession session(sender, receiver, options);
  session.handshake();
  const auto& stats = session.run(/*target_symbols=*/500,
                                  /*max_transmissions=*/4000);
  EXPECT_TRUE(receiver.has_content()) << strategy_name(GetParam());
  EXPECT_EQ(receiver.content(f.content.size()), f.content);
  EXPECT_GT(stats.symbols_useful, 0u);
  EXPECT_GE(stats.symbols_sent, stats.symbols_useful);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SessionStrategies,
                         ::testing::Values(overlay::Strategy::kRandom,
                                           overlay::Strategy::kRandomBloom,
                                           overlay::Strategy::kRecode,
                                           overlay::Strategy::kRecodeBloom,
                                           overlay::Strategy::kRecodeMinwise));

TEST(Session, HandshakeMeasuresControlTraffic) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  for (int i = 0; i < 200; ++i) sender.receive_encoded(f.origin.next());
  for (int i = 0; i < 200; ++i) receiver.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = overlay::Strategy::kRecodeBloom;
  InformedSession session(sender, receiver, options);
  session.handshake();
  const auto& stats = session.stats();
  // Two sketches (~1 KB each, fragmented over the 1 KB-MTU pipe) + one
  // Bloom filter (~200 bytes at 8 bpe) + hellos and the request.
  EXPECT_GT(stats.control_bytes, 2000u);
  EXPECT_LT(stats.control_bytes, 4096u);
  // control_packets counts the actual control frames on the wire, both
  // directions: receiver hello + 2 sketch fragments + Bloom + request,
  // sender hello + 2 sketch fragments.
  const auto& tx = session.sender_transport().stats();
  const auto& rx = session.receiver_transport().stats();
  EXPECT_EQ(stats.control_packets,
            tx.control_frames_sent + rx.control_frames_sent);
  EXPECT_EQ(stats.control_bytes,
            tx.control_bytes_sent + rx.control_bytes_sent);
  EXPECT_GE(stats.control_packets, 7u);
  // Every frame respects the paper's 1 KB packet MTU.
  EXPECT_LE(stats.control_bytes, stats.control_packets * kSessionPipeMtu);
  // Disjoint sets: estimated containment near zero.
  EXPECT_LT(stats.estimated_containment, 0.15);
}

TEST(Session, StepBeforeHandshakeThrows) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  sender.receive_encoded(f.origin.next());
  SessionOptions options;
  options.strategy = overlay::Strategy::kRandom;
  InformedSession session(sender, receiver, options);
  EXPECT_THROW(session.step(), std::logic_error);
}

TEST(Session, ArtSummaryWorksAsBloomAlternative) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  for (int i = 0; i < 220; ++i) sender.receive_encoded(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = overlay::Strategy::kRecodeBloom;
  options.summary = SummaryKind::kArt;
  options.requested_symbols = 200;
  InformedSession session(sender, receiver, options);
  session.run(500, 4000);
  EXPECT_TRUE(receiver.has_content());
  EXPECT_EQ(receiver.content(f.content.size()), f.content);
}

TEST(Session, BloomFilterPreventsRedundantTransmissions) {
  Fixture f;
  Peer sender = f.make_peer("sender");
  Peer receiver = f.make_peer("receiver");
  // Highly correlated: the sender holds everything the receiver holds plus
  // 60 fresh symbols.
  std::vector<codec::EncodedSymbol> shared;
  for (int i = 0; i < 180; ++i) shared.push_back(f.origin.next());
  for (const auto& s : shared) {
    sender.receive_encoded(s);
    receiver.receive_encoded(s);
  }
  for (int i = 0; i < 60; ++i) sender.receive_encoded(f.origin.next());

  SessionOptions options;
  options.strategy = overlay::Strategy::kRandomBloom;
  InformedSession session(sender, receiver, options);
  session.handshake();
  for (int i = 0; i < 50; ++i) session.step();
  // Every symbol sent comes from the ~60-symbol filtered domain, so none of
  // the receiver's 180 held symbols is ever retransmitted. The memoryless
  // sender does resend coupons: 50 draws from ~60 cover ~60(1 - e^{-5/6})
  // ~ 34 distinct symbols.
  EXPECT_GE(session.stats().symbols_useful, 25u);
  EXPECT_EQ(session.stats().symbols_useful,
            session.stats().new_encoded_symbols);
}

TEST(Admission, RejectsIdenticalContent) {
  Fixture f;
  Peer receiver = f.make_peer("receiver");
  Peer twin = f.make_peer("twin");
  Peer fresh = f.make_peer("fresh");
  for (int i = 0; i < 150; ++i) {
    const auto symbol = f.origin.next();
    receiver.receive_encoded(symbol);
    twin.receive_encoded(symbol);
  }
  for (int i = 0; i < 150; ++i) fresh.receive_encoded(f.origin.next());

  const AdmissionPolicy policy;
  const auto twin_decision = evaluate_candidate(
      receiver.sketch(), receiver.symbol_count(),
      CandidateSender{0, &twin.sketch(), twin.symbol_count()}, policy);
  EXPECT_FALSE(twin_decision.admitted);
  EXPECT_GT(twin_decision.resemblance, 0.95);

  const auto fresh_decision = evaluate_candidate(
      receiver.sketch(), receiver.symbol_count(),
      CandidateSender{1, &fresh.sketch(), fresh.symbol_count()}, policy);
  EXPECT_TRUE(fresh_decision.admitted);
  EXPECT_GT(fresh_decision.novelty, 0.8);
}

TEST(Admission, SelectSendersRanksByNovelty) {
  Fixture f;
  Peer receiver = f.make_peer("receiver");
  Peer overlapping = f.make_peer("overlapping");
  Peer fresh = f.make_peer("fresh");
  std::vector<codec::EncodedSymbol> pool;
  for (int i = 0; i < 300; ++i) pool.push_back(f.origin.next());
  for (int i = 0; i < 150; ++i) receiver.receive_encoded(pool[i]);
  for (int i = 100; i < 250; ++i) overlapping.receive_encoded(pool[i]);
  for (int i = 150; i < 300; ++i) fresh.receive_encoded(pool[i]);

  const std::vector<CandidateSender> candidates{
      {7, &overlapping.sketch(), overlapping.symbol_count()},
      {9, &fresh.sketch(), fresh.symbol_count()},
  };
  const auto selected = select_senders(receiver.sketch(),
                                       receiver.symbol_count(), candidates,
                                       AdmissionPolicy{}, 2);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 9u);  // disjoint peer ranks first
  EXPECT_EQ(selected[1], 7u);
}

/// select_senders as a stable sort of every admitted candidate by
/// descending novelty: the reference for its one-pass top-k.
std::vector<std::size_t> stable_sort_reference(
    const sketch::MinwiseSketch& receiver, std::size_t receiver_size,
    const std::vector<CandidateSender>& candidates,
    const AdmissionPolicy& policy, std::size_t max_senders) {
  std::vector<std::pair<std::size_t, double>> admitted;
  for (const CandidateSender& candidate : candidates) {
    const auto decision =
        evaluate_candidate(receiver, receiver_size, candidate, policy);
    if (decision.admitted) {
      admitted.emplace_back(candidate.id, decision.novelty);
    }
  }
  std::stable_sort(
      admitted.begin(), admitted.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::size_t> selected;
  for (const auto& [id, novelty] : admitted) {
    if (selected.size() == max_senders) break;
    selected.push_back(id);
  }
  return selected;
}

TEST(Admission, SelectSendersEqualsAStableSortOfTheAdmitted) {
  constexpr std::uint64_t kUniverse = 1 << 20;
  util::Xoshiro256 rng(0xad31);
  std::vector<std::uint64_t> held;
  for (int i = 0; i < 200; ++i) held.push_back(rng.next_below(kUniverse));
  sketch::MinwiseSketch receiver(kUniverse);
  receiver.update_all(held);
  // A few distinct sender profiles, one of them the receiver's own
  // content (always rejected); many candidates share a profile, so their
  // novelties tie exactly.
  std::vector<sketch::MinwiseSketch> profiles;
  for (const std::size_t shared : {200u, 0u, 50u, 100u, 150u, 190u}) {
    sketch::MinwiseSketch profile(kUniverse);
    for (std::size_t i = 0; i < 200; ++i) {
      profile.update(i < shared ? held[i] : rng.next_below(kUniverse));
    }
    profiles.push_back(profile);
  }
  const AdmissionPolicy policy;
  std::size_t rejected = 0;
  std::size_t tied = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.next_below(40);
    std::vector<CandidateSender> candidates;
    std::set<double> novelties;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& profile = profiles[rng.next_below(profiles.size())];
      candidates.push_back(CandidateSender{1000 + rng.next_below(1000000),
                                           &profile,
                                           200 + 100 * rng.next_below(2)});
      const auto decision = evaluate_candidate(receiver, held.size(),
                                               candidates.back(), policy);
      if (!decision.admitted) {
        ++rejected;
      } else if (!novelties.insert(decision.novelty).second) {
        ++tied;
      }
    }
    for (const std::size_t max_senders :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4}, n,
          n + 3}) {
      EXPECT_EQ(select_senders(receiver, held.size(), candidates, policy,
                               max_senders),
                stable_sort_reference(receiver, held.size(), candidates,
                                      policy, max_senders))
          << "trial " << trial << ", " << n << " candidates, max "
          << max_senders;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(tied, 0u);
}

}  // namespace
}  // namespace icd::core
