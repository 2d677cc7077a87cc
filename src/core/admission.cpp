#include "core/admission.hpp"

#include <algorithm>
#include <stdexcept>

namespace icd::core {

AdmissionDecision evaluate_candidate(const sketch::MinwiseSketch& receiver,
                                     std::size_t receiver_size,
                                     const CandidateSender& candidate,
                                     const AdmissionPolicy& policy) {
  if (candidate.sketch == nullptr) {
    throw std::invalid_argument("evaluate_candidate: null sketch");
  }
  AdmissionDecision decision;
  decision.resemblance =
      sketch::MinwiseSketch::resemblance(receiver, *candidate.sketch);
  const double containment = sketch::containment_from_resemblance(
      decision.resemblance, receiver_size, candidate.working_set_size);
  decision.novelty = 1.0 - containment;
  decision.admitted = decision.resemblance <= policy.max_resemblance;
  return decision;
}

AdmissionPolicy relax_policy_for_need(const AdmissionPolicy& policy,
                                      std::size_t needed_symbols,
                                      std::size_t target_symbols) {
  double need = target_symbols > 0
                    ? static_cast<double>(needed_symbols) /
                          static_cast<double>(target_symbols)
                    : 1.0;
  need = std::clamp(need, 0.0, 1.0);
  AdmissionPolicy relaxed = policy;
  // need -> 0 (near complete): cutoff -> 1.
  // need -> 1 (nothing yet):   the strict policy, unchanged.
  relaxed.max_resemblance =
      policy.max_resemblance + (1.0 - policy.max_resemblance) * (1.0 - need);
  return relaxed;
}

std::vector<std::size_t> select_senders(
    const sketch::MinwiseSketch& receiver, std::size_t receiver_size,
    const std::vector<CandidateSender>& candidates,
    const AdmissionPolicy& policy, std::size_t max_senders) {
  struct Scored {
    std::size_t id;
    double novelty;
  };
  // The best max_senders so far, by descending novelty. A candidate goes
  // after every kept one whose novelty is not lower, which is the order a
  // stable sort of all admitted candidates would give.
  std::vector<Scored> best;
  best.reserve(std::min(max_senders, candidates.size()) + 1);
  for (const CandidateSender& candidate : candidates) {
    const auto decision =
        evaluate_candidate(receiver, receiver_size, candidate, policy);
    if (!decision.admitted) continue;
    const auto at = std::upper_bound(
        best.begin(), best.end(), decision.novelty,
        [](double novelty, const Scored& kept) {
          return novelty > kept.novelty;
        });
    if (at - best.begin() == static_cast<std::ptrdiff_t>(max_senders)) {
      continue;
    }
    best.insert(at, Scored{candidate.id, decision.novelty});
    if (best.size() > max_senders) best.pop_back();
  }
  std::vector<std::size_t> selected;
  selected.reserve(best.size());
  for (const Scored& s : best) selected.push_back(s.id);
  return selected;
}

}  // namespace icd::core
