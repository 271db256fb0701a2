#ifndef STAR_PERFBENCH_WORKLOADS_H_
#define STAR_PERFBENCH_WORKLOADS_H_

// The three workloads: their service configuration and the requests they
// issue, round by round. Every round of a workload has the same make-up,
// so a run that stops at a round boundary attempts whole rounds.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataset.h"
#include "query/query_graph.h"
#include "serve/query_service.h"

namespace star::perfbench {

/// Generator seed of the fixed join-fault queries (independent of the
/// workload seed) and the indices of the faulting queries in its stream
/// of 4-node path queries (see README.md, "Fault kept in join-d2").
inline constexpr uint64_t kFaultSeed = 0xFA17;
inline constexpr int kFaultIndices[] = {45, 50};

/// Work budgets of the pooled workloads (join-d2, zipf-mix): a seeded
/// query whose staged run pulls more star matches, or expands more nodes
/// in its star searches, than these is left out of the pool (screened).
/// Such queries belong to the join fault's class; kept, they would miss
/// the join-d2 deadline on some seeds only, and a single one decides a
/// zipf-mix run's figures. Both counts are deterministic.
inline constexpr size_t kPullBudget = 20000;
inline constexpr size_t kExpandBudget = 30000;

struct QueryInfo {
  query::QueryGraph query;
  /// Index into the fixed fault list, or -1 for a seeded query.
  int fault = -1;
};

struct WorkloadSpec {
  std::string name;
  int clients = 1;
  size_t k = 10;
  /// Per-request deadline (0 = none).
  double deadline_ms = 0.0;
  serve::ServiceOptions service;
  /// Seeded queries drawn from a screened pool (join-d2, zipf-mix); 0 for
  /// a fresh query per request (star-d2).
  size_t pool_size = 0;
};

/// The requests of one workload for one seed. Rounds are generated on
/// demand; At() is not thread-safe (the scheduler serializes it).
class RequestPlan {
 public:
  virtual ~RequestPlan() = default;
  virtual size_t round_size() const = 0;
  /// Query id of request `i` (global request index).
  virtual size_t At(size_t i) = 0;
  /// All queries issued so far, by query id. Ids are stable.
  const std::deque<QueryInfo>& queries() const { return queries_; }

 protected:
  std::deque<QueryInfo> queries_;
};

/// Service configuration of `name`; false for an unknown workload.
bool MakeSpec(const std::string& name, WorkloadSpec* spec);

/// Positions, in the workload's seeded query stream, of its first
/// spec.pool_size queries within the work budgets. Runs every candidate
/// through the staged pipeline, on 4 threads.
std::vector<size_t> ScreenPool(const WorkloadSpec& spec, const Dataset& data,
                               uint64_t seed);

/// The request plan of `spec` for `seed` over the benchmark graph; `pool`
/// is ScreenPool's result (empty for star-d2).
std::unique_ptr<RequestPlan> MakePlan(const WorkloadSpec& spec,
                                      const Dataset& data, uint64_t seed,
                                      const std::vector<size_t>& pool);

/// Runs body(i) for every i in [0, n) on 4 threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& body);

/// The fixed fault queries, in kFaultIndices order.
std::vector<query::QueryGraph> FaultQueries(const Dataset& data);

}  // namespace star::perfbench

#endif  // STAR_PERFBENCH_WORKLOADS_H_
