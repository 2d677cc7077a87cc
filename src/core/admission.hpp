#pragma once

#include <cstddef>
#include <vector>

#include "sketch/minwise.hpp"

/// Sketch-based admission control and sender selection (end of Section 4):
/// "Such methods are suitable for simple admission control, allowing
/// receivers to immediately reject candidate senders whose content is
/// identical to their own. The receivers will also be able to distribute
/// the load among the senders whose content is identical ... overlay
/// management may explicitly avoid connecting nodes with identical
/// content."
namespace icd::core {

struct CandidateSender {
  /// Caller-assigned identifier (index into its own peer table).
  std::size_t id = 0;
  /// The candidate's calling-card sketch.
  const sketch::MinwiseSketch* sketch = nullptr;
  /// The candidate's advertised working-set size.
  std::size_t working_set_size = 0;
};

struct AdmissionPolicy {
  /// Reject candidates whose estimated resemblance to the receiver exceeds
  /// this ("reject candidate senders whose content is identical").
  double max_resemblance = 0.95;
};

struct AdmissionDecision {
  bool admitted = false;
  double resemblance = 0.0;
  /// Estimated fraction of the candidate's set that is new to the receiver.
  double novelty = 0.0;
};

/// Evaluates a single candidate against the receiver's sketch.
AdmissionDecision evaluate_candidate(const sketch::MinwiseSketch& receiver,
                                     std::size_t receiver_size,
                                     const CandidateSender& candidate,
                                     const AdmissionPolicy& policy);

/// Starvation relaxation: when strict admission rejects every candidate,
/// the cutoff relaxes in proportion to how *little* the receiver still
/// needs. Near the end of a download every candidate resembles the
/// receiver above max_resemblance while still holding the few novel
/// symbols it lacks — so as the remaining need `needed / target` shrinks,
/// max_resemblance relaxes toward 1. A peer with most of the download
/// ahead keeps (nearly) the strict policy: senders that look identical to
/// it genuinely offer nothing, and relaxing for them would admit useless
/// sessions.
AdmissionPolicy relax_policy_for_need(const AdmissionPolicy& policy,
                                      std::size_t needed_symbols,
                                      std::size_t target_symbols);

/// Ranks admitted candidates by descending estimated novelty; among
/// near-identical candidates, position in `candidates` breaks ties, so a
/// caller can rotate the input order to spread load ("distribute the load
/// among the senders whose content is identical"). Returns the first
/// max_senders of that ranking, kept in one pass over the candidates
/// (no sort of the whole pool); each candidate costs one resemblance.
std::vector<std::size_t> select_senders(const sketch::MinwiseSketch& receiver,
                                        std::size_t receiver_size,
                                        const std::vector<CandidateSender>& candidates,
                                        const AdmissionPolicy& policy,
                                        std::size_t max_senders);

}  // namespace icd::core
