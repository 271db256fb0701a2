#include "staged.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "common/arena.h"
#include "common/deadline.h"
#include "core/decomposition.h"
#include "core/rank_join.h"
#include "core/star_search.h"
#include "scoring/query_scorer.h"

namespace star::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A star stream whose Next is timed and counted. Everything else passes
/// through, so the rank join sees exactly the stream TopK would build.
class TimedStream : public core::CoveredMatchIterator {
 public:
  TimedStream(std::unique_ptr<core::StarMatchStream> inner, LayerSample* out,
              Budget budget, Cancellation* cancel)
      : inner_(std::move(inner)),
        out_(out),
        budget_(budget),
        cancel_(cancel) {}

  std::optional<core::GraphMatch> Next() override {
    const Clock::time_point t0 = Clock::now();
    std::optional<core::GraphMatch> m = inner_->Next();
    out_->stream_next_ms += MillisSince(t0);
    if (m.has_value()) ++out_->star_matches_pulled;
    const bool over =
        (budget_.pulls > 0 && out_->star_matches_pulled > budget_.pulls) ||
        (budget_.expanded > 0 &&
         inner_->search().stats().nodes_expanded > budget_.expanded);
    if (over) cancel_->Cancel();
    return m;
  }
  double UpperBound() const override { return inner_->UpperBound(); }
  uint64_t covered_mask() const override { return inner_->covered_mask(); }
  bool cancelled() const override { return inner_->cancelled(); }

 private:
  std::unique_ptr<core::StarMatchStream> inner_;
  LayerSample* out_;
  Budget budget_;
  Cancellation* cancel_;
};

}  // namespace

StagedRun RunStaged(const Dataset& data, const core::StarOptions& options,
                    const query::QueryGraph& q, size_t k,
                    const std::vector<int>& candidate_nodes, Budget budget) {
  StagedRun run;
  LayerSample& s = run.sample;
  // TopK(q, k) runs without a cancellation token; a budgeted run needs
  // one to stop the searches and the joins.
  Cancellation budget_cancel;
  Cancellation* cancel =
      budget.pulls > 0 || budget.expanded > 0 ? &budget_cancel : nullptr;
  common::MonotonicArena arena;

  // 1. Scorer.
  Clock::time_point t0 = Clock::now();
  scoring::QueryScorer scorer(data.graph, q, *data.ensemble, options.match,
                              &data.index, &arena);
  scorer.set_cancellation(cancel);
  s.scorer_ms = MillisSince(t0);

  // 2. Candidate lists.
  t0 = Clock::now();
  for (const int u : candidate_nodes) scorer.Candidates(u);
  s.candidates_ms = MillisSince(t0);

  // 3. Decomposition.
  t0 = Clock::now();
  const std::vector<query::StarQuery> stars =
      core::DecomposeQuery(q, options.decomposition, &scorer);
  s.decompose_ms = MillisSince(t0);
  s.stars = stars.size();
  const bool single = stars.size() == 1;

  // 4. Star searches, each initialized by its first UpperBound.
  std::vector<core::StarMatchStream*> streams;
  std::vector<std::unique_ptr<core::StarMatchStream>> owned;
  for (size_t i = 0; i < stars.size(); ++i) {
    core::StarSearch::Options so;
    so.strategy = options.strategy;
    so.k_hint = single ? k : 0;
    if (!single) {
      so.node_weights = core::AlphaNodeWeights(q, stars, i, options.alpha);
    }
    so.cancel = cancel;
    auto search =
        std::make_unique<core::StarSearch>(scorer, stars[i], std::move(so));
    t0 = Clock::now();
    search->UpperBound();
    s.star_init_ms += MillisSince(t0);
    owned.push_back(std::make_unique<core::StarMatchStream>(std::move(search)));
    streams.push_back(owned.back().get());
  }

  // 5. Pulls through the left-deep join pipeline.
  t0 = Clock::now();
  std::unique_ptr<core::CoveredMatchIterator> pipeline;
  std::vector<core::RankJoin*> joins;
  for (auto& stream : owned) {
    auto timed =
        std::make_unique<TimedStream>(std::move(stream), &s, budget, cancel);
    if (pipeline == nullptr) {
      pipeline = std::move(timed);
    } else {
      auto join = std::make_unique<core::RankJoin>(
          std::move(pipeline), std::move(timed),
          options.match.enforce_injective, cancel,
          scorer.transient_resource());
      joins.push_back(join.get());
      pipeline = std::move(join);
    }
  }
  CancelChecker cancel_check(cancel);
  while (run.answers.size() < k) {
    if (cancel_check.ShouldStop() || scorer.truncated()) break;
    std::optional<core::GraphMatch> m = pipeline->Next();
    if (!m.has_value()) break;
    run.answers.push_back(std::move(*m));
  }
  s.pulls_ms = MillisSince(t0);
  run.over_budget = cancel != nullptr && cancel->cancelled();

  // Counters, read after the run.
  for (core::StarMatchStream* stream : streams) {
    s.search.Merge(stream->search().stats());
  }
  for (const core::RankJoin* j : joins) {
    s.join_pairs_probed += j->stats().pairs_probed;
    s.join_results_formed += j->stats().results_formed;
  }
  s.retrieval = scorer.retrieval_stats();
  s.kernel = scorer.kernel_stats();
  for (int u = 0; u < q.node_count(); ++u) {
    if (q.node(u).wildcard) continue;
    if (const auto* list = scorer.CandidatesIfReady(u)) {
      s.candidates_kept += list->size();
    }
  }
  s.answers = run.answers.size();

  // The postings walk alone, timed apart from the pipeline stages.
  t0 = Clock::now();
  for (const int u : candidate_nodes) {
    if (!q.node(u).wildcard) scorer.RetrievalPool(u);
  }
  s.pool_walk_ms = MillisSince(t0);
  return run;
}

}  // namespace star::perfbench
