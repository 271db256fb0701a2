#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "common/random.h"
#include "query/workload.h"
#include "staged.h"

namespace star::perfbench {

namespace {

constexpr size_t kStarRound = 32;
// join-d2: a round is kJoinSeededPerRound seeded queries with the fault
// queries at evenly spaced positions; the pool holds five rounds' worth.
constexpr size_t kJoinSeededPerRound = 126;
constexpr double kJoinDeadlineMs = 3000.0;
constexpr size_t kFaultCount = std::size(kFaultIndices);
// zipf-mix: Zipf-skewed requests over a pool four times the default
// result-cache capacity.
constexpr size_t kZipfPool = 512;
constexpr size_t kZipfRound = 256;
constexpr double kZipfExponent = 1.0;

/// 4- and 5-node paths and cycles, in a fixed rotation.
query::QueryGraph NextGeneralQuery(query::WorkloadGenerator& wg, size_t i) {
  const query::WorkloadOptions makeup = QueryMakeup();
  const int nodes = (i / 2) % 2 == 0 ? 4 : 5;
  return i % 2 == 0 ? wg.RandomPathQuery(nodes, makeup)
                    : wg.RandomGraphQuery(nodes, nodes, makeup);
}

/// Position i of a pooled workload's seeded query stream: general queries
/// for join-d2; stars (3-5 nodes) and general queries alternating for
/// zipf-mix. The stream must be drawn in order from a fresh generator.
query::QueryGraph StreamQuery(const WorkloadSpec& spec,
                              query::WorkloadGenerator& wg, size_t i) {
  if (spec.name != "zipf-mix") return NextGeneralQuery(wg, i);
  if (i % 2 == 0) {
    return wg.RandomStarQuery(3 + static_cast<int>((i / 2) % 3),
                              QueryMakeup());
  }
  return NextGeneralQuery(wg, i / 2);
}

/// join-d2 keeps general queries proper: at least 4 nodes and not a star
/// (a dead-end walk can return a shorter path).
bool ShapeFits(const WorkloadSpec& spec, const query::QueryGraph& q) {
  return spec.name == "zipf-mix" || (q.node_count() >= 4 && !q.IsStar());
}

class StarPlan : public RequestPlan {
 public:
  StarPlan(const Dataset& data, uint64_t seed) : wg_(data.graph, seed) {}
  size_t round_size() const override { return kStarRound; }
  size_t At(size_t i) override {
    while (queries_.size() <= i) {
      for (auto& q : wg_.StarWorkload(kStarRound, 3, 5, QueryMakeup())) {
        queries_.push_back({std::move(q), -1});
      }
    }
    return i;
  }

 private:
  query::WorkloadGenerator wg_;
};

/// Regenerates the screened pool as query ids 0..pool.size()-1.
void LoadPool(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
              const std::vector<size_t>& pool, std::deque<QueryInfo>* out) {
  query::WorkloadGenerator wg(data.graph, seed);
  for (size_t drawn = 0, next = 0; next < pool.size(); ++drawn) {
    query::QueryGraph q = StreamQuery(spec, wg, drawn);
    if (drawn == pool[next]) {
      out->push_back({std::move(q), -1});
      ++next;
    }
  }
}

class JoinPlan : public RequestPlan {
 public:
  JoinPlan(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
           const std::vector<size_t>& pool)
      : pool_size_(pool.size()) {
    LoadPool(spec, data, seed, pool, &queries_);
    const std::vector<query::QueryGraph> faults = FaultQueries(data);
    for (size_t f = 0; f < faults.size(); ++f) {
      queries_.push_back({faults[f], static_cast<int>(f)});
    }
  }
  size_t round_size() const override {
    return kJoinSeededPerRound + kFaultCount;
  }
  size_t At(size_t i) override {
    const size_t round = i / round_size();
    size_t pos = i % round_size();
    const size_t spacing = round_size() / kFaultCount;
    if (pos % spacing == 0 && pos / spacing < kFaultCount) {
      return pool_size_ + pos / spacing;
    }
    pos -= std::min(pos / spacing + 1, kFaultCount);
    return (round * kJoinSeededPerRound + pos) % pool_size_;
  }

 private:
  const size_t pool_size_;
};

class ZipfPlan : public RequestPlan {
 public:
  ZipfPlan(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
           const std::vector<size_t>& pool)
      : rng_(seed ^ 0x5A1Fu), zipf_(pool.size(), kZipfExponent) {
    LoadPool(spec, data, seed, pool, &queries_);
    // Which pool queries are popular is itself seeded.
    popularity_.resize(pool.size());
    std::iota(popularity_.begin(), popularity_.end(), size_t{0});
    rng_.Shuffle(popularity_);
  }
  size_t round_size() const override { return kZipfRound; }
  size_t At(size_t i) override {
    while (drawn_.size() <= i) {
      drawn_.push_back(popularity_[zipf_.Sample(rng_)]);
    }
    return drawn_[i];
  }

 private:
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<size_t> popularity_;
  std::vector<size_t> drawn_;
};

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) body(i);
    });
  }
  for (std::thread& t : workers) t.join();
}

bool MakeSpec(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  int d = 2;
  if (name == "star-d2" || name == "join-d2") {
    // Cold path: every request runs the engine.
    s.service.cache_capacity = 0;
    s.service.star_cache_capacity = 0;
    s.service.enable_coalescing = false;
    s.clients = name == "star-d2" ? 1 : 4;
    if (name == "join-d2") {
      s.deadline_ms = kJoinDeadlineMs;
      s.pool_size = 5 * kJoinSeededPerRound;
    }
  } else if (name == "zipf-mix") {
    d = 1;  // default result cache, star cache and coalescing
    s.clients = 4;
    s.pool_size = kZipfPool;
  } else {
    return false;
  }
  s.service.star = EngineOptions(d, core::StarStrategy::kStard);
  // One client with a 4-thread engine reads 17-20% apart from run to run
  // on a shared 4-vCPU host (every parallel section waits for the slowest
  // vCPU) and gains little (init cpu/wall 1.3); one engine thread reads
  // within 3% and is as fast.
  if (name == "star-d2") s.service.star.match.threads = 1;
  s.service.max_inflight = 4;
  *spec = s;
  return true;
}

std::vector<size_t> ScreenPool(const WorkloadSpec& spec, const Dataset& data,
                               uint64_t seed) {
  core::StarOptions screen = spec.service.star;
  screen.match.threads = 1;  // results are identical at every count
  query::WorkloadGenerator wg(data.graph, seed);
  std::vector<size_t> kept;
  size_t drawn = 0;
  while (kept.size() < spec.pool_size) {
    // Screen in batches; keep the first pool_size in stream order.
    std::vector<query::QueryGraph> batch;
    std::vector<size_t> position;
    // Half again what is still missing: about a third is screened out.
    const size_t want =
        std::max<size_t>(32, (spec.pool_size - kept.size()) * 3 / 2);
    while (batch.size() < want) {
      query::QueryGraph q = StreamQuery(spec, wg, drawn);
      if (ShapeFits(spec, q)) {
        batch.push_back(std::move(q));
        position.push_back(drawn);
      }
      ++drawn;
    }
    std::vector<uint8_t> keep(batch.size(), 0);
    ParallelFor(batch.size(), [&](size_t i) {
      const StagedRun run = RunStaged(data, screen, batch[i], spec.k, {},
                                      {kPullBudget, kExpandBudget});
      keep[i] = !run.over_budget &&
                run.sample.search.nodes_expanded <= kExpandBudget;
    });
    for (size_t i = 0; i < batch.size() && kept.size() < spec.pool_size;
         ++i) {
      if (keep[i]) kept.push_back(position[i]);
    }
  }
  return kept;
}

std::unique_ptr<RequestPlan> MakePlan(const WorkloadSpec& spec,
                                      const Dataset& data, uint64_t seed,
                                      const std::vector<size_t>& pool) {
  if (spec.name == "star-d2") return std::make_unique<StarPlan>(data, seed);
  if (spec.name == "join-d2") {
    return std::make_unique<JoinPlan>(spec, data, seed, pool);
  }
  return std::make_unique<ZipfPlan>(spec, data, seed, pool);
}

std::vector<query::QueryGraph> FaultQueries(const Dataset& data) {
  query::WorkloadGenerator wg(data.graph, kFaultSeed);
  const int last = *std::max_element(std::begin(kFaultIndices),
                                     std::end(kFaultIndices));
  std::vector<query::QueryGraph> stream;
  for (int i = 0; i <= last; ++i) {
    stream.push_back(wg.RandomPathQuery(4, QueryMakeup()));
  }
  std::vector<query::QueryGraph> out;
  for (const int i : kFaultIndices) out.push_back(stream[i]);
  return out;
}

}  // namespace star::perfbench
