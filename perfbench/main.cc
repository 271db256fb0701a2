// The query-path benchmark: one workload per run, driven through
// serve::QueryService by closed-loop client threads, every answer checked,
// one JSON object with the run's metrics as the last line of stdout.
//
//   perfbench --workload star-d2|join-d2|zipf-mix --seed N --seconds S
//             --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (serve counters of the timed run plus a traced,
// single-client re-execution of a sample of the run's queries through
// the staged pipeline of staged.h). Exit code 0 when every check passed,
// 1 when an answer or a cross-check failed, 2 on bad arguments.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/brute_force.h"
#include "checker.h"
#include "common/random.h"
#include "core/framework.h"
#include "dataset.h"
#include "serve/query_service.h"
#include "staged.h"
#include "workloads.h"

namespace star::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 15;
constexpr size_t kStrategySample = 4;
constexpr size_t kOracleQueries = 6;
constexpr size_t kTraceSample = 40;
constexpr double kScoreTolerance = 1e-9;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double CpuMillis() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      a->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// What one request produced, as the client saw it.
struct Outcome {
  size_t query = 0;
  bool ok = false;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  size_t star_matches_pulled = 0;
};

/// Distinct answer lists per query id: identical responses are checked
/// once, and the memory kept grows with distinct answers, not requests.
using AnswerBook =
    std::unordered_map<size_t, std::vector<std::vector<core::GraphMatch>>>;

void Record(AnswerBook& book, size_t query,
            std::vector<core::GraphMatch>&& answers) {
  auto& lists = book[query];
  for (const auto& l : lists) {
    if (SameAnswers(l, answers)) return;
  }
  lists.push_back(std::move(answers));
}

/// Hands out request indices in order and stops at the first round
/// boundary after the measuring time is up, so a run attempts whole
/// rounds.
class Scheduler {
 public:
  Scheduler(RequestPlan& plan, double seconds)
      : plan_(plan), seconds_(seconds), start_(Clock::now()) {}

  /// The next request's (index, query id), or false when the run is over.
  bool Take(size_t* index, size_t* query) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopped_ && next_ % plan_.round_size() == 0 &&
        MillisSince(start_) >= seconds_ * 1e3) {
      stopped_ = true;
    }
    if (stopped_) return false;
    *index = next_++;
    *query = plan_.At(*index);
    return true;
  }

  const query::QueryGraph& Query(size_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    return plan_.queries()[id].query;
  }

 private:
  std::mutex mu_;
  RequestPlan& plan_;
  const double seconds_;
  const Clock::time_point start_;
  size_t next_ = 0;
  bool stopped_ = false;
};

struct TimedResult {
  std::vector<Outcome> outcomes;  // in request-index order
  AnswerBook answers;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  serve::ServiceStats stats;
  serve::CacheStats cache;
  serve::StarCacheStats star_cache;
};

TimedResult RunTimed(const WorkloadSpec& spec, RequestPlan& plan,
                     serve::QueryService& service, double seconds) {
  TimedResult r;
  Scheduler sched(plan, seconds);
  std::vector<std::vector<std::pair<size_t, Outcome>>> per_client(spec.clients);
  std::vector<AnswerBook> books(spec.clients);
  const double cpu0 = CpuMillis();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      size_t index = 0, id = 0;
      while (sched.Take(&index, &id)) {
        serve::QueryRequest req;
        req.query = sched.Query(id);
        req.k = spec.k;
        if (spec.deadline_ms > 0.0) {
          req.deadline = Deadline::AfterMillis(spec.deadline_ms);
        }
        const Clock::time_point sent = Clock::now();
        serve::QueryResponse resp = service.Execute(std::move(req));
        Outcome o;
        o.latency_ms = MillisSince(sent);
        o.query = id;
        o.ok = resp.status.ok();
        o.queue_ms = resp.queue_ms;
        o.exec_ms = resp.exec_ms;
        o.star_matches_pulled = resp.framework.total_depth;
        per_client[c].emplace_back(index, o);
        Record(books[c], id, std::move(resp.matches));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.cpu_ms = CpuMillis() - cpu0;
  std::vector<std::pair<size_t, Outcome>> all;
  for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [i, o] : all) r.outcomes.push_back(o);
  for (AnswerBook& b : books) {
    for (auto& [id, lists] : b) {
      for (auto& l : lists) Record(r.answers, id, std::move(l));
    }
  }
  r.stats = service.stats();
  r.cache = service.cache_stats();
  r.star_cache = service.star_cache_stats();
  return r;
}

/// Accumulates failures of the answer and cross checks.
struct Verdict {
  size_t violations = 0;
  void Fail(const std::string& what) {
    if (violations++ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

void CheckAnswers(const Dataset& data, const WorkloadSpec& spec,
                  const RequestPlan& plan, const AnswerBook& book,
                  Verdict* v) {
  AnswerChecker checker(data.graph, *data.ensemble, spec.service.star.match);
  for (const auto& [id, lists] : book) {
    for (const auto& l : lists) {
      const std::string err = checker.Check(plan.queries()[id].query, spec.k, l);
      if (!err.empty()) v->Fail("query " + std::to_string(id) + ": " + err);
    }
  }
}

std::vector<core::GraphMatch> DirectTopK(const Dataset& data,
                                         core::StarOptions options,
                                         const query::QueryGraph& q,
                                         size_t k) {
  options.reuse = nullptr;
  core::StarFramework fw(data.graph, *data.ensemble, &data.index, options);
  return fw.TopK(q, k);
}

/// stark, stard and hybrid agree with the served scores on a seeded sample
/// of the answered seeded queries.
void CrossCheckStrategies(const Dataset& data, const WorkloadSpec& spec,
                          const RequestPlan& plan, const TimedResult& timed,
                          uint64_t seed, Verdict* v) {
  std::set<size_t> answered;
  for (const Outcome& o : timed.outcomes) {
    if (o.ok && plan.queries()[o.query].fault < 0) answered.insert(o.query);
  }
  std::vector<size_t> ids(answered.begin(), answered.end());
  Rng rng(seed ^ 0xC4055u);
  rng.Shuffle(ids);
  ids.resize(std::min(ids.size(), kStrategySample));
  for (const size_t id : ids) {
    const auto& served = timed.answers.at(id).front();
    for (const core::StarStrategy s :
         {core::StarStrategy::kStark, core::StarStrategy::kStard,
          core::StarStrategy::kHybrid}) {
      core::StarOptions o = spec.service.star;
      o.strategy = s;
      const auto got = DirectTopK(data, o, plan.queries()[id].query, spec.k);
      if (!SameScores(got, served, kScoreTolerance)) {
        v->Fail("strategy " + std::to_string(static_cast<int>(s)) +
                " disagrees with the served scores on query " +
                std::to_string(id));
      }
    }
  }
}

/// zipf-mix: every answer the service gave (cache hits and coalesced
/// copies included) equals a direct TopK of the same query, bit for bit.
void CrossCheckDirect(const Dataset& data, const WorkloadSpec& spec,
                      const RequestPlan& plan, const TimedResult& timed,
                      Verdict* v) {
  std::vector<size_t> ids;
  for (const auto& [id, lists] : timed.answers) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::vector<std::vector<core::GraphMatch>> direct(ids.size());
  core::StarOptions o = spec.service.star;
  o.match.threads = 1;  // results are identical at every count
  ParallelFor(ids.size(), [&](size_t i) {
    direct[i] = DirectTopK(data, o, plan.queries()[ids[i]].query, spec.k);
  });
  for (size_t i = 0; i < ids.size(); ++i) {
    for (const auto& l : timed.answers.at(ids[i])) {
      if (!SameAnswers(l, direct[i])) {
        v->Fail("served answer of query " + std::to_string(ids[i]) +
                " differs from a direct TopK");
      }
    }
  }
}

/// On a small graph of the same preset, every engine's scores equal the
/// exhaustive oracle's. The candidate cutoffs are lifted there: with them,
/// an untyped wildcard's semantics depend on its place in the
/// decomposition, which no single oracle models (BruteForceOracleCheck).
void CrossCheckOracle(const WorkloadSpec& spec, uint64_t seed, Verdict* v,
                      size_t* compared) {
  const Dataset small(kOracleGraphNodes);
  query::WorkloadGenerator wg(small.graph, seed ^ 0x0AC1Eu);
  const query::WorkloadOptions makeup = QueryMakeup();
  core::StarOptions options = spec.service.star;
  options.match.max_candidates = 0;
  options.match.max_retrieval = 0;
  const scoring::MatchConfig& cfg = options.match;
  for (size_t i = 0; i < kOracleQueries; ++i) {
    const query::QueryGraph q = i % 2 == 0
                                    ? wg.RandomStarQuery(3 + (i / 2) % 2, makeup)
                                    : wg.RandomPathQuery(4, makeup);
    if (const std::string why = baseline::BruteForceOracleCheck(q, cfg);
        !why.empty()) {
      v->Fail("oracle cannot model small-graph query " + std::to_string(i) +
              ": " + why);
      continue;
    }
    scoring::QueryScorer scorer(small.graph, q, *small.ensemble, cfg,
                                &small.index);
    const auto oracle = baseline::BruteForceTopK(scorer, spec.k);
    ++*compared;
    for (const core::StarStrategy s :
         {core::StarStrategy::kStark, core::StarStrategy::kStard,
          core::StarStrategy::kHybrid}) {
      core::StarOptions o = options;
      o.strategy = s;
      if (!SameScores(DirectTopK(small, o, q, spec.k), oracle,
                      kScoreTolerance)) {
        v->Fail("strategy " + std::to_string(static_cast<int>(s)) +
                " disagrees with the exhaustive oracle on small-graph query " +
                std::to_string(i));
      }
    }
  }
}

/// Sums of the traced samples; metrics are per query.
struct TraceTotals {
  size_t queries = 0;
  LayerSample sum;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  double key_ms = 0.0;
};

void Add(LayerSample& a, const LayerSample& b) {
  a.scorer_ms += b.scorer_ms;
  a.candidates_ms += b.candidates_ms;
  a.decompose_ms += b.decompose_ms;
  a.star_init_ms += b.star_init_ms;
  a.pulls_ms += b.pulls_ms;
  a.stream_next_ms += b.stream_next_ms;
  a.pool_walk_ms += b.pool_walk_ms;
  a.stars += b.stars;
  a.candidates_kept += b.candidates_kept;
  a.retrieval.Merge(b.retrieval);
  a.kernel.Merge(b.kernel);
  a.search.Merge(b.search);
  a.star_matches_pulled += b.star_matches_pulled;
  a.join_pairs_probed += b.join_pairs_probed;
  a.join_results_formed += b.join_results_formed;
  a.answers += b.answers;
}

/// The query nodes whose candidate lists a TopK run built.
std::vector<int> ComputedNodes(const core::FrameworkStats& stats) {
  std::vector<int> nodes;
  for (int u = 0; u < static_cast<int>(stats.node_candidates.size()); ++u) {
    if (stats.node_candidates[u].computed) nodes.push_back(u);
  }
  return nodes;
}

/// Re-executes the first kTraceSample distinct answered seeded queries of
/// the run, one at a time: untraced TopK, then the staged pipeline, whose
/// answer must equal TopK's bit for bit.
TraceTotals RunTrace(const Dataset& data, const WorkloadSpec& spec,
                     const RequestPlan& plan, const TimedResult& timed,
                     const serve::QueryService& service, Verdict* v) {
  TraceTotals t;
  std::vector<size_t> ids;
  std::set<size_t> seen;
  for (const Outcome& o : timed.outcomes) {
    if (ids.size() == kTraceSample) break;
    if (o.ok && plan.queries()[o.query].fault < 0 && seen.insert(o.query).second) {
      ids.push_back(o.query);
    }
  }
  core::StarOptions options = spec.service.star;
  options.reuse = nullptr;
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t id = ids[i];
    const query::QueryGraph& q = plan.queries()[id].query;
    // An unmeasured TopK names the nodes whose candidate lists production
    // builds and warms the caches; the measured runs then alternate which
    // goes first, so what is left of warm-up effects cancels out of the
    // overhead.
    core::StarFramework fw(data.graph, *data.ensemble, &data.index, options);
    fw.TopK(q, spec.k);
    const std::vector<int> candidate_nodes = ComputedNodes(fw.last_stats());
    StagedRun run;
    std::vector<core::GraphMatch> expected;
    for (int pass = 0; pass < 2; ++pass) {
      const Clock::time_point t0 = Clock::now();
      if ((pass + i) % 2 == 0) {
        expected = fw.TopK(q, spec.k);
        t.untraced_ms += MillisSince(t0);
      } else {
        run = RunStaged(data, options, q, spec.k, candidate_nodes, {});
        t.traced_ms += MillisSince(t0) - run.sample.pool_walk_ms;
      }
    }
    if (!SameAnswers(run.answers, expected)) {
      v->Fail("staged answer of query " + std::to_string(id) +
              " differs from StarFramework::TopK");
    }
    Add(t.sum, run.sample);
    const Clock::time_point k0 = Clock::now();
    const std::string key = service.CacheKey(q, spec.k);
    t.key_ms += MillisSince(k0);
    if (key.empty()) v->Fail("empty cache key");
    ++t.queries;
  }
  return t;
}

/// The make-up of the queries a run issued, measured against the graph:
/// wildcard nodes; labels that equal a data label (verbatim), that are one
/// indexed token of one (partial), or neither (noisy); and the queries
/// whose wildcard share exceeds half their nodes.
std::string Makeup(const Dataset& data, const RequestPlan& plan,
                   const TimedResult& timed) {
  const auto lower = [](std::string_view s) {
    std::string out(s);
    for (char& c : out) c = static_cast<char>(std::tolower(c));
    return out;
  };
  std::set<std::string> labels;
  for (graph::NodeId v = 0; v < data.graph.node_count(); ++v) {
    labels.insert(lower(data.graph.NodeLabel(v)));
  }
  std::set<size_t> issued;
  for (const Outcome& o : timed.outcomes) issued.insert(o.query);
  size_t queries = 0, nodes = 0, wildcard = 0, verbatim = 0, partial = 0,
         noisy = 0, mostly_wildcard = 0, edges = 0;
  for (const size_t id : issued) {
    const query::QueryGraph& q = plan.queries()[id].query;
    if (plan.queries()[id].fault >= 0) continue;
    ++queries;
    edges += q.edge_count();
    size_t wild = 0;
    for (const query::QueryNode& n : q.nodes()) {
      ++nodes;
      const std::string l = lower(n.label);
      if (n.wildcard) {
        ++wild;
      } else if (labels.count(l) != 0) {
        ++verbatim;
      } else if (l.find(' ') == std::string::npos && data.index.HasToken(l)) {
        ++partial;
      } else {
        ++noisy;
      }
    }
    wildcard += wild;
    mostly_wildcard += 2 * wild > static_cast<size_t>(q.node_count());
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%zu distinct seeded queries, %.2f nodes and %.2f edges each; "
                "nodes: %.1f%% wildcard, %.1f%% verbatim, %.1f%% partial, "
                "%.1f%% noisy; %zu queries over 50%% wildcards",
                queries, Ratio(nodes, queries), Ratio(edges, queries),
                100 * Ratio(wildcard, nodes), 100 * Ratio(verbatim, nodes),
                100 * Ratio(partial, nodes), 100 * Ratio(noisy, nodes),
                mostly_wildcard);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// join-d2 bookkeeping: which requests failed, with the star matches they
/// had pulled when the deadline stopped them.
void ReportFailures(const RequestPlan& plan, const TimedResult& timed) {
  std::map<size_t, std::vector<const Outcome*>> failed;
  for (const Outcome& o : timed.outcomes) {
    if (!o.ok) failed[o.query].push_back(&o);
  }
  for (const auto& [id, list] : failed) {
    const int fault = plan.queries()[id].fault;
    size_t lo = SIZE_MAX, hi = 0;
    double lat_lo = 1e300, lat_hi = 0.0;
    for (const Outcome* o : list) {
      lo = std::min(lo, o->star_matches_pulled);
      hi = std::max(hi, o->star_matches_pulled);
      lat_lo = std::min(lat_lo, o->latency_ms);
      lat_hi = std::max(lat_hi, o->latency_ms);
    }
    if (fault >= 0) {
      std::printf("failed: fault query %d (generator seed %llu, path index %d): "
                  "%zu requests, star_matches_pulled %zu..%zu, latency "
                  "%.0f..%.0f ms\n",
                  fault, static_cast<unsigned long long>(kFaultSeed),
                  kFaultIndices[fault], list.size(), lo, hi, lat_lo, lat_hi);
    } else {
      std::printf("failed: seeded query %zu: %zu requests, "
                  "star_matches_pulled %zu..%zu\n",
                  id, list.size(), lo, hi);
    }
  }
}

/// Runs ScreenPool in a forked child and reads the kept stream
/// positions back through a pipe. Call only while the process has a
/// single thread.
bool ScreenInChild(const WorkloadSpec& spec, uint64_t seed,
                   std::vector<size_t>* pool) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const Dataset data(kGraphNodes);
    const std::vector<size_t> kept = ScreenPool(spec, data, seed);
    const char* p = reinterpret_cast<const char*>(kept.data());
    size_t left = kept.size() * sizeof(size_t);
    while (left > 0) {
      const ssize_t w = write(fds[1], p, left);
      if (w <= 0) _exit(1);
      p += w;
      left -= static_cast<size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[4096];
  for (ssize_t r; (r = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bytes.append(buf, static_cast<size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.empty() || bytes.size() % sizeof(size_t) != 0) {
    return false;
  }
  pool->resize(bytes.size() / sizeof(size_t));
  std::memcpy(pool->data(), bytes.data(), bytes.size());
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload star-d2|join-d2|zipf-mix "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  // The pool screen runs first, in a child process: this process has no
  // other thread yet (so forking is safe), and the screen's memory stays
  // out of this process's peak resident set.
  const Clock::time_point start = Clock::now();
  std::vector<size_t> pool;
  if (spec.pool_size > 0 && !ScreenInChild(spec, args.seed, &pool)) {
    std::fprintf(stderr, "perfbench: the pool screen failed\n");
    return 1;
  }

  // Set-up: graph, label index, TF-IDF model, ensemble and service,
  // repeated; the median is reported and the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<serve::QueryService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    data.reset();
    const Clock::time_point t0 = Clock::now();
    data = std::make_unique<Dataset>(kGraphNodes);
    service = std::make_unique<serve::QueryService>(
        data->graph, *data->ensemble, &data->index, spec.service);
    setup_s.push_back(MillisSince(t0) / 1e3);
  }

  std::unique_ptr<RequestPlan> plan =
      MakePlan(spec, *data, args.seed, pool);
  const double prepare_s = MillisSince(start) / 1e3;
  const TimedResult timed = RunTimed(spec, *plan, *service, args.seconds);
  // Read before the checks, which allocate on their own.
  const double peak_rss_mb = PeakRssMb();

  size_t failed = 0;
  std::vector<double> latencies, queue_ms, exec_ms;
  for (const Outcome& o : timed.outcomes) {
    failed += o.ok ? 0 : 1;
    latencies.push_back(o.latency_ms);
    queue_ms.push_back(o.queue_ms);
    exec_ms.push_back(o.exec_ms);
  }
  const size_t attempted = timed.outcomes.size();

  Verdict verdict;
  CheckAnswers(*data, spec, *plan, timed.answers, &verdict);
  CrossCheckStrategies(*data, spec, *plan, timed, args.seed, &verdict);
  if (spec.service.cache_capacity > 0) {
    CrossCheckDirect(*data, spec, *plan, timed, &verdict);
  }
  size_t oracle_compared = 0;
  CrossCheckOracle(spec, args.seed, &verdict, &oracle_compared);
  if (failed > 0) ReportFailures(*plan, timed);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"qps", (attempted - failed) / timed.wall_s, "requests/s"},
        {"latency_p50_ms", Percentile(latencies, 0.50), "ms"},
        {"latency_p99_ms", Percentile(latencies, 0.99), "ms"},
        {"cpu_ms_per_query", timed.cpu_ms / attempted, "ms"},
    };
  } else {
    const TraceTotals t =
        RunTrace(*data, spec, *plan, timed, *service, &verdict);
    const double n = std::max<size_t>(t.queries, 1);
    const LayerSample& s = t.sum;
    const double req = static_cast<double>(attempted);
    const serve::CacheStats& rc = timed.cache;
    const serve::StarCacheStats& sc = timed.star_cache;
    const auto sum = [](const std::vector<double>& v) {
      double total = 0.0;
      for (const double x : v) total += x;
      return total;
    };
    metrics = {
        {"process.peak_rss_mb", peak_rss_mb, "MB"},
        {"serve.queue_ms", sum(queue_ms) / req, "ms"},
        {"serve.exec_ms", sum(exec_ms) / req, "ms"},
        {"serve.key_ms", t.key_ms / n, "ms"},
        {"serve.result_cache_hit_ratio", rc.hit_rate(), "ratio"},
        {"serve.result_cache_evictions", rc.evictions / req, "count"},
        {"serve.coalesced_followers",
         timed.stats.coalesced_followers / req, "count"},
        {"serve.star_cache_toplist_hit_ratio",
         Ratio(sc.toplist_hits, sc.toplist_hits + sc.toplist_misses), "ratio"},
        {"serve.star_cache_candidate_hit_ratio",
         Ratio(sc.candidate_hits, sc.candidate_hits + sc.candidate_misses),
         "ratio"},
        {"scoring.candidates_ms", s.candidates_ms / n, "ms"},
        {"scoring.nodes_scored", s.retrieval.nodes_scored / n, "count"},
        {"scoring.kept_per_scored",
         Ratio(s.candidates_kept, s.retrieval.nodes_scored), "ratio"},
        {"graph.pool_walk_ms", s.pool_walk_ms / n, "ms"},
        {"graph.blocks_considered", s.retrieval.blocks_considered / n, "count"},
        {"graph.blocks_skipped_ratio",
         Ratio(s.retrieval.blocks_skipped, s.retrieval.blocks_considered),
         "ratio"},
        {"graph.nodes_bound_skipped", s.retrieval.nodes_bound_skipped / n,
         "count"},
        {"text.fn_pairs", s.kernel.pairs / n, "count"},
        {"text.fn_early_exit_ratio", Ratio(s.kernel.early_exits, s.kernel.pairs),
         "ratio"},
        {"text.features_per_pair",
         Ratio(s.kernel.features_evaluated, s.kernel.pairs), "count"},
        {"core.decompose_ms", s.decompose_ms / n, "ms"},
        {"core.stars_per_query", s.stars / n, "count"},
        {"core.star_init_ms", s.star_init_ms / n, "ms"},
        {"core.star_init_cpu_per_wall",
         Ratio(s.search.init_cpu_ms, s.search.init_wall_ms), "ratio"},
        {"core.pivot_candidates", s.search.pivot_candidates / n, "count"},
        {"core.messages_sent", s.search.messages_sent / n, "count"},
        {"core.nodes_expanded", s.search.nodes_expanded / n, "count"},
        {"core.enumerators_built", s.search.enumerators_built / n, "count"},
        {"core.stream_next_ms", s.stream_next_ms / n, "ms"},
        {"core.join_self_ms", (s.pulls_ms - s.stream_next_ms) / n, "ms"},
        {"core.star_matches_pulled", s.star_matches_pulled / n, "count"},
        {"core.join_pairs_probed", s.join_pairs_probed / n, "count"},
        {"core.join_results_formed", s.join_results_formed / n, "count"},
        {"core.join_yield", Ratio(s.answers, s.star_matches_pulled), "ratio"},
        {"trace.unattributed_ms", (t.untraced_ms - s.StagesMs()) / n, "ms"},
        {"trace.overhead_ms", (t.traced_ms - t.untraced_ms) / n, "ms"},
    };
  }
  std::fprintf(stderr,
               "[perfbench] %s seed=%llu: %zu requests, %zu failed; "
               "set-up and screen %.1fs, timed %.1fs, checks%s %.1fs; "
               "oracle queries compared %zu, check violations %zu\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               attempted, failed, prepare_s, timed.wall_s,
               args.trace ? " and trace" : "",
               MillisSince(start) / 1e3 - prepare_s - timed.wall_s,
               oracle_compared, verdict.violations);
  std::fprintf(stderr, "[perfbench] make-up: %s\n",
               Makeup(*data, *plan, timed).c_str());
  if (!pool.empty()) {
    std::fprintf(stderr,
                 "[perfbench] pool: %zu queries kept of the first %zu in the "
                 "seeded stream\n",
                 pool.size(), pool.back() + 1);
  }
  PrintResult(verdict.violations == 0, attempted, failed, metrics);
  return verdict.violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace star::perfbench

int main(int argc, char** argv) { return star::perfbench::Main(argc, argv); }
