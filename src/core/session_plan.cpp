#include "core/session_plan.hpp"

#include <algorithm>

#include "core/delivery.hpp"
#include "util/hash.hpp"

namespace icd::core {

std::uint64_t receiver_seed(std::uint64_t session_seed,
                            std::uint64_t refresh_tick, std::size_t receiver) {
  return util::hash64(receiver,
                      util::hash64(refresh_tick, session_seed ^ 0x5e551075ULL));
}

std::vector<PlannedDownload> plan_downloads(
    std::size_t me, const CandidateSender& self,
    const std::vector<CandidateSender>& candidates,
    const DeliveryOptions& options, std::size_t target_symbols,
    std::uint64_t seed) {
  const std::size_t have = self.working_set_size;
  const std::size_t needed =
      target_symbols > have ? target_symbols - have : 1;
  auto selected =
      select_senders(*self.sketch, self.working_set_size, candidates,
                     options.admission, options.max_peer_sessions);
  // Starvation relaxation: admission exists to skip identical-content
  // senders, but near the end of a download every candidate looks
  // near-identical (resemblance above the cutoff) while still holding
  // the few novel symbols the peer needs to finish. Instead of blindly
  // connecting to the largest candidate, re-run admission under a policy
  // whose resemblance cutoff relaxes in proportion to the shrinking
  // remaining need — near-complete peers stay served, ranked by novelty,
  // while a peer that still needs most of the content keeps the strict
  // cutoff and admits no useless (genuinely identical) senders. The
  // largest candidate survives only as the last-resort fallback when even
  // the relaxed policy admits nobody (noisy sketch estimates), and never
  // when peer sessions are disabled outright (max_peer_sessions 0).
  if (selected.empty() && !candidates.empty() &&
      options.max_peer_sessions > 0) {
    selected = select_senders(
        *self.sketch, self.working_set_size, candidates,
        relax_policy_for_need(options.admission, needed, target_symbols),
        options.max_peer_sessions);
  }
  if (selected.empty() && !candidates.empty() &&
      options.max_peer_sessions > 0) {
    const auto best = std::max_element(
        candidates.begin(), candidates.end(),
        [](const CandidateSender& a, const CandidateSender& b) {
          return a.working_set_size < b.working_set_size;
        });
    selected.push_back(best->id);
  }
  std::vector<PlannedDownload> plan;
  plan.reserve(selected.size());
  for (const std::size_t j : selected) {
    PlannedDownload download;
    download.sender_id = j;
    download.session.strategy = options.strategy;
    download.session.flow_control = options.flow_control;
    download.session.handshake_retry_ticks = options.handshake_retry_ticks;
    download.session.handshake_backoff_factor =
        options.handshake_backoff_factor;
    download.session.handshake_backoff_cap_ticks =
        options.handshake_backoff_cap_ticks;
    download.session.max_handshake_retries = options.max_handshake_retries;
    download.session.liveness_timeout_ticks = options.liveness_timeout_ticks;
    download.session.requested_symbols = std::max<std::size_t>(
        1, (needed * 5 / 4) / std::max<std::size_t>(1, selected.size()));
    download.session.seed = seed = util::mix64(seed);
    download.link = wire::resolve_edge_config(
        options.link_config, options.link, j, me,
        util::mix64(seed ^ 0x11aacULL));
    plan.push_back(std::move(download));
  }
  return plan;
}

void sample_candidates(std::size_t me, const std::vector<CandidateSender>& view,
                       const std::vector<std::size_t>& eligible,
                       std::size_t sample, std::uint64_t seed,
                       std::vector<CandidateSender>& out) {
  out.clear();
  if (sample == 0) {
    for (const std::size_t j : eligible) {
      if (j != me) out.push_back(view[j]);
    }
    return;
  }
  // Ranking a bounded random sample instead of the full pool makes one
  // refresh cost O(n * sample) sketch comparisons instead of O(n^2) (and
  // O(n * sample^2) duplicate checks).
  const bool self_eligible =
      std::binary_search(eligible.begin(), eligible.end(), me);
  const std::size_t pool =
      eligible.size() - static_cast<std::size_t>(self_eligible);
  if (pool == 0) return;
  const std::size_t want = std::min(sample, pool);
  std::uint64_t draw = util::mix64(seed ^ 0x5ca1ab1eULL);
  // Rejection-sample `want` distinct candidates; the attempt cap only
  // matters when want is close to the pool size, where a rare undershoot
  // just means a slightly smaller (still ranked) pool.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 64 + 16 * want;
  while (out.size() < want && attempts < max_attempts) {
    ++attempts;
    draw = util::mix64(draw);
    const std::size_t j = eligible[draw % eligible.size()];
    if (j == me || std::any_of(out.begin(), out.end(),
                               [j](const CandidateSender& candidate) {
                                 return candidate.id == j;
                               })) {
      continue;
    }
    out.push_back(view[j]);
  }
}

codec::DegreeDistribution delivery_distribution(std::size_t content_size,
                                                std::size_t block_size) {
  const std::size_t blocks = std::max<std::size_t>(
      1, (content_size + block_size - 1) / block_size);
  return codec::DegreeDistribution::robust_soliton(
      std::max<std::size_t>(blocks, 2));
}

}  // namespace icd::core
