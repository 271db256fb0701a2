#ifndef STAR_PERFBENCH_CHECKER_H_
#define STAR_PERFBENCH_CHECKER_H_

// An answer checker that shares no code path with the engine's search:
// node scores go through SimilarityEnsemble::Score (the reference F_N,
// not the batch kernel), edge connectivity through a breadth-first walk
// written here, and the Eq. 2 score is rebuilt from those parts.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/match.h"
#include "query/query_graph.h"
#include "scoring/match_config.h"
#include "text/ensemble.h"
#include "graph/knowledge_graph.h"

namespace star::perfbench {

class AnswerChecker {
 public:
  AnswerChecker(const graph::KnowledgeGraph& g,
                const text::SimilarityEnsemble& ensemble,
                const scoring::MatchConfig& config);

  /// Checks one answer list of `q` at `k`. Returns "" when every answer
  /// is valid, else a description of the first violation.
  std::string Check(const query::QueryGraph& q, size_t k,
                    const std::vector<core::GraphMatch>& answers);

 private:
  /// F_N of mapping query node `u` of q to data node v (reference path).
  double NodeScore(const query::QueryNode& n, graph::NodeId v) const;
  /// F_E of a query edge mapped onto (a, b); negative when the pair is not
  /// connected within d by any walk scoring at least edge_threshold.
  double EdgeScore(const query::QueryEdge& e, graph::NodeId a,
                   graph::NodeId b);
  /// Smallest walk length h in [2, d] from a to b, 0 when none.
  int WalkLength(graph::NodeId a, graph::NodeId b);

  const graph::KnowledgeGraph& g_;
  const text::SimilarityEnsemble& ensemble_;
  const scoring::MatchConfig config_;
  std::unordered_map<uint64_t, int> walk_memo_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
};

/// Bitwise equality of two answer lists (mappings and score bits).
bool SameAnswers(const std::vector<core::GraphMatch>& a,
                 const std::vector<core::GraphMatch>& b);

/// Equal score vectors within `tol` (tie order is not compared).
bool SameScores(const std::vector<core::GraphMatch>& a,
                const std::vector<core::GraphMatch>& b, double tol);

}  // namespace star::perfbench

#endif  // STAR_PERFBENCH_CHECKER_H_
