#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "text/type_ontology.h"

namespace star::perfbench {

using graph::NodeId;

namespace {

constexpr double kScoreTolerance = 1e-9;

int OntologyType(const text::SimilarityEnsemble& ensemble,
                 std::string_view name) {
  const text::TypeOntology* onto = ensemble.context().ontology;
  if (name.empty() || onto == nullptr) return -1;
  return onto->FindType(name);
}

}  // namespace

AnswerChecker::AnswerChecker(const graph::KnowledgeGraph& g,
                             const text::SimilarityEnsemble& ensemble,
                             const scoring::MatchConfig& config)
    : g_(g), ensemble_(ensemble), config_(config), mark_(g.node_count(), 0) {}

double AnswerChecker::NodeScore(const query::QueryNode& n, NodeId v) const {
  if (n.wildcard) {
    if (n.type_name.empty()) return config_.wildcard_node_score;
    const int32_t want = g_.FindTypeId(n.type_name);
    return want >= 0 && g_.NodeType(v) == want ? config_.wildcard_node_score
                                               : 0.0;
  }
  const int32_t data_type = g_.NodeType(v);
  const int data_onto =
      data_type >= 0 ? OntologyType(ensemble_, g_.TypeName(data_type)) : -1;
  return ensemble_.Score(n.label, g_.NodeLabel(v),
                         OntologyType(ensemble_, n.type_name), data_onto);
}

int AnswerChecker::WalkLength(NodeId a, NodeId b) {
  if (config_.d < 2) return 0;
  if (g_.Degree(b) < g_.Degree(a)) std::swap(a, b);
  const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
  if (const auto it = walk_memo_.find(key); it != walk_memo_.end()) {
    return it->second;
  }
  // Layer h holds every node reachable from a by a walk of exactly h
  // edges; the answer is the first h >= 2 whose layer contains b.
  std::vector<NodeId> layer, next;
  ++epoch_;
  for (const auto& nb : g_.Neighbors(a)) {
    if (mark_[nb.node] != epoch_) {
      mark_[nb.node] = epoch_;
      layer.push_back(nb.node);
    }
  }
  int found = 0;
  for (int h = 2; h <= config_.d && found == 0 && !layer.empty(); ++h) {
    ++epoch_;
    next.clear();
    for (const NodeId x : layer) {
      for (const auto& nb : g_.Neighbors(x)) {
        if (nb.node == b) found = h;
        if (mark_[nb.node] != epoch_) {
          mark_[nb.node] = epoch_;
          next.push_back(nb.node);
        }
      }
    }
    layer.swap(next);
  }
  walk_memo_.emplace(key, found);
  return found;
}

double AnswerChecker::EdgeScore(const query::QueryEdge& e, NodeId a,
                                NodeId b) {
  double best = -1.0;
  for (const auto& nb : g_.Neighbors(a)) {
    if (nb.node != b) continue;
    const double rel =
        e.wildcard_relation
            ? 1.0
            : ensemble_.Score(e.relation, g_.RelationName(nb.relation));
    if (rel >= config_.edge_threshold) best = std::max(best, rel);
  }
  const int h = WalkLength(a, b);
  if (h > 0) {
    const double decay = std::pow(config_.lambda, h - 1);
    if (decay >= config_.edge_threshold) best = std::max(best, decay);
  }
  return best;
}

std::string AnswerChecker::Check(const query::QueryGraph& q, size_t k,
                                 const std::vector<core::GraphMatch>& answers) {
  if (answers.size() > k) {
    return "more than k answers (" + std::to_string(answers.size()) + ")";
  }
  std::set<std::vector<NodeId>> seen;
  for (size_t i = 0; i < answers.size(); ++i) {
    const core::GraphMatch& m = answers[i];
    const std::string at = "answer " + std::to_string(i) + ": ";
    if (m.mapping.size() != static_cast<size_t>(q.node_count())) {
      return at + "mapping has the wrong arity";
    }
    for (const NodeId v : m.mapping) {
      if (v >= g_.node_count()) return at + "query node left unmapped";
    }
    if (config_.enforce_injective && !m.Injective()) {
      return at + "mapping is not injective";
    }
    if (!seen.insert(m.mapping).second) return at + "mapping repeats";
    if (i > 0 && m.score > answers[i - 1].score) {
      return at + "score increases";
    }
    double rebuilt = 0.0;
    for (int u = 0; u < q.node_count(); ++u) {
      const query::QueryNode& n = q.node(u);
      const double s = NodeScore(n, m.mapping[u]);
      const bool exempt = n.wildcard && n.type_name.empty();
      if (!exempt && s < config_.node_threshold) {
        return at + "node " + std::to_string(u) + " scores " +
               std::to_string(s) + " below the node threshold";
      }
      rebuilt += s;
    }
    for (int e = 0; e < q.edge_count(); ++e) {
      const query::QueryEdge& qe = q.edge(e);
      const double s = EdgeScore(qe, m.mapping[qe.u], m.mapping[qe.v]);
      if (s < 0.0) {
        return at + "edge " + std::to_string(e) + " is not connected within d";
      }
      rebuilt += s;
    }
    if (std::fabs(rebuilt - m.score) > kScoreTolerance) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "score %.12f, rebuilt %.12f", m.score,
                    rebuilt);
      return at + buf;
    }
  }
  return "";
}

bool SameAnswers(const std::vector<core::GraphMatch>& a,
                 const std::vector<core::GraphMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapping != b[i].mapping) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameScores(const std::vector<core::GraphMatch>& a,
                const std::vector<core::GraphMatch>& b, double tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i].score - b[i].score) > tol) return false;
  }
  return true;
}

}  // namespace star::perfbench
