#ifndef STAR_PERFBENCH_DATASET_H_
#define STAR_PERFBENCH_DATASET_H_

// The benchmark's data and engine configuration: one generated
// DBpedia-like graph with everything the engine reads beside it (label
// index, TF-IDF model, similarity ensemble), and the matching semantics
// every workload runs under.

#include <memory>

#include "core/framework.h"
#include "graph/graph_generator.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/workload.h"
#include "scoring/match_config.h"
#include "text/ensemble.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::perfbench {

/// Graph size of the benchmark graph (DBpediaLike preset, fixed seed: the
/// graph is the same for every workload seed).
inline constexpr size_t kGraphNodes = 5000;
inline constexpr uint64_t kGraphSeed = 42;
/// Graph size of the exhaustive-oracle cross-check (same preset).
inline constexpr size_t kOracleGraphNodes = 120;

struct Dataset {
  graph::KnowledgeGraph graph;
  graph::LabelIndex index;
  text::SynonymDictionary synonyms = text::SynonymDictionary::BuiltIn();
  text::TypeOntology ontology = text::TypeOntology::BuiltIn();
  text::TfIdfModel tfidf;
  std::unique_ptr<text::SimilarityEnsemble> ensemble;

  explicit Dataset(size_t nodes)
      : graph(graph::GenerateGraph(graph::DBpediaLike(nodes, kGraphSeed))),
        index(graph) {
    for (graph::NodeId v = 0; v < graph.node_count(); ++v) {
      tfidf.AddDocument(graph.NodeLabel(v));
    }
    tfidf.Finalize();
    text::SimilarityEnsemble::Context ctx;
    ctx.synonyms = &synonyms;
    ctx.ontology = &ontology;
    ctx.tfidf = &tfidf;
    ensemble = std::make_unique<text::SimilarityEnsemble>(ctx);
  }
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
};

/// Matching semantics of every workload; only d and the strategy vary.
/// Retrieval is uncapped (max_retrieval 0), so candidate lists come from
/// the bound-driven postings walk.
inline core::StarOptions EngineOptions(int d, core::StarStrategy strategy) {
  core::StarOptions o;
  o.strategy = strategy;
  o.match.d = d;
  o.match.node_threshold = 0.40;
  o.match.edge_threshold = 0.05;
  o.match.lambda = 0.5;
  o.match.max_candidates = 4000;
  return o;
}

/// DBPSB-style query make-up: wildcards, noisy and partial labels.
inline query::WorkloadOptions QueryMakeup() {
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.25;
  wo.label_noise = 0.3;
  wo.partial_label = 0.3;
  wo.keep_relation = 0.5;
  wo.keep_type = 0.5;
  return wo;
}

}  // namespace star::perfbench

#endif  // STAR_PERFBENCH_DATASET_H_
