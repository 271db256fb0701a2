#ifndef STAR_PERFBENCH_STAGED_H_
#define STAR_PERFBENCH_STAGED_H_

// StarFramework::TopK re-staged from the layers' public calls, in
// pipeline order, with a span around each stage:
//   1. QueryScorer construction
//   2. Candidates(u) for the query nodes a production run builds lists for
//   3. DecomposeQuery
//   4. each StarSearch's initialization (its first UpperBound)
//   5. the pulls through the StarMatchStream / RankJoin pipeline, with
//      every star stream wrapped so the time inside its Next is known.
// The staged answer is compared bitwise with TopK's by the caller.

#include <cstddef>
#include <vector>

#include "core/framework.h"
#include "core/match.h"
#include "dataset.h"
#include "query/query_graph.h"

namespace star::perfbench {

/// Spans (milliseconds) and counters of one staged query.
struct LayerSample {
  double scorer_ms = 0.0;
  double candidates_ms = 0.0;
  double decompose_ms = 0.0;
  double star_init_ms = 0.0;
  double pulls_ms = 0.0;
  double stream_next_ms = 0.0;
  double pool_walk_ms = 0.0;  // timed RetrievalPool, outside the stages

  size_t stars = 0;
  size_t candidates_kept = 0;
  scoring::RetrievalStats retrieval;
  text::KernelStats kernel;
  core::StarSearchStats search;
  size_t star_matches_pulled = 0;
  size_t join_pairs_probed = 0;
  size_t join_results_formed = 0;
  size_t answers = 0;

  /// Sum of the five pipeline stages.
  double StagesMs() const {
    return scorer_ms + candidates_ms + decompose_ms + star_init_ms + pulls_ms;
  }
};

struct StagedRun {
  std::vector<core::GraphMatch> answers;
  LayerSample sample;
  /// True when the run was stopped at its budget; `answers` is then a
  /// prefix and must not be compared.
  bool over_budget = false;
};

/// Work limits of a staged run; 0 = none.
struct Budget {
  /// Star matches emitted by all star streams together.
  size_t pulls = 0;
  /// Nodes expanded by one star search, checked after each of its pulls.
  size_t expanded = 0;
};

/// Runs q through the staged pipeline. `candidate_nodes` are the query
/// nodes whose candidate lists are built up front (stage 2); the others
/// stay lazy, as in production. A run that exceeds `budget` is stopped
/// and marked over_budget.
StagedRun RunStaged(const Dataset& data, const core::StarOptions& options,
                    const query::QueryGraph& q, size_t k,
                    const std::vector<int>& candidate_nodes, Budget budget);

}  // namespace star::perfbench

#endif  // STAR_PERFBENCH_STAGED_H_
