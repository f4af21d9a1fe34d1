// edgebench — the repository benchmark program. One process runs one
// workload for one seed and prints, as its last stdout line, a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   edgebench --workload crowd_gs|tenant_mix --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 runs the same passes with spans on, adds the isolated layer
// probes, writes Chrome trace-event JSON to --trace-out, and reports the
// per-layer metrics. perfbench/README.md lists every metric, the
// end-to-end metric each layer metric should move, and the noise findings
// behind the run structure.
//
// The library is driven only through its public API: core::EdgeletFramework
// (Init / Plan / Execute / StartExecution / Submit / Drain / oracles),
// exec::QueryExecution, net::SimEngine and the layer entry points the
// probes call.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/framework.h"
#include "crypto/aead.h"
#include "crypto/sha256.h"
#include "data/generator.h"
#include "exec/protocol.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "net/parsim/parallel_simulator.h"
#include "net/simulator.h"
#include "query/grouping_sets.h"
#include "query/scan.h"
#include "sched/scheduler.h"
#include "store/medium.h"
#include "store/sealed_log.h"
#include "tee/enclave.h"

using namespace edgelet;

namespace {

// --- Clocks, statistics, host telemetry --------------------------------------

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Aggregate "cpu" line of /proc/stat: steal and total jiffies.
struct CpuJiffies {
  double steal = 0;
  double total = 0;
};

CpuJiffies ReadProcStat() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return j;
  for (int i = 0; i < 10; ++i) {
    double v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (i == 7) j.steal = v;
  }
  return j;
}

// A fixed integer loop from this file: its ns per iteration tracks the
// host's speed at this moment, independent of the library under test.
double CalibNs() {
  constexpr uint64_t kIters = 1 << 21;
  std::vector<double> reps;
  uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    const double t0 = WallNow();
    uint64_t x = 0x9E3779B97F4A7C15ULL + r;
    for (uint64_t i = 0; i < kIters; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      x *= 0x2545F4914F6CDD1DULL;
    }
    sink += x;
    reps.push_back((WallNow() - t0) * 1e9 / kIters);
  }
  if (sink == 42) std::fprintf(stderr, " ");
  return Median(reps);
}

// Runs `op` in batches until at least `min_s` seconds have passed; returns
// the median wall time of one call in nanoseconds.
double ProbeNs(const std::function<void()>& op, double min_s = 0.05,
               int batch = 16) {
  std::vector<double> per_call;
  const double start = WallNow();
  do {
    const double t0 = WallNow();
    for (int i = 0; i < batch; ++i) op();
    per_call.push_back((WallNow() - t0) * 1e9 / batch);
  } while (WallNow() - start < min_s || per_call.size() < 3);
  return Median(per_call);
}

// --- Tracing -----------------------------------------------------------------

// Spans around each call the benchmark makes into a layer, kept in memory
// and written as Chrome trace-event JSON at exit. Off, Begin/End cost one
// branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    double start;
    double end;
    int parent;
    uint64_t query_id;
  };

  bool on = false;

  int Begin(const char* name, const char* layer, uint64_t query_id) {
    if (!on) return -1;
    spans_.push_back({name, layer, WallNow(), 0, current_, query_id});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[id].end = WallNow();
    current_ = spans_[id].parent;
  }

  size_t size() const { return spans_.size(); }

  // Self time per layer: a span's duration minus its children's.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    }
    std::map<std::string, double> by_layer;
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_layer[spans_[i].layer] += self[i];
    }
    return by_layer;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                   "\"args\":{\"span\":%zu,\"parent\":%d,\"query_id\":%llu}}\n",
                   i == 0 ? "" : ",", s.name, s.layer, (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent,
                   static_cast<unsigned long long>(s.query_id));
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

Tracer g_tracer;

class SpanScope {
 public:
  SpanScope(const char* name, const char* layer, uint64_t query_id = 0)
      : id_(g_tracer.Begin(name, layer, query_id)) {}
  ~SpanScope() { g_tracer.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// Seconds one span costs to record, measured on a scratch tracer.
double SpanCostSeconds() {
  Tracer scratch;
  scratch.on = true;
  constexpr int kSpans = 20000;
  const double t0 = WallNow();
  for (int i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("x", "x", 0));
  return (WallNow() - t0) / kSpans;
}

// --- Run bookkeeping ---------------------------------------------------------

// Every run times at least this many passes (crowd) or rounds (tenant),
// and reads peak RSS right after the last of them: a fixed amount of
// work, so the memory metric does not depend on how fast the host ran.
constexpr size_t kMinTimed = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  double peak_rss_mib = 0;

  void Gate(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Measurements every workload fills; each workload leaves the layers it
// bypasses at zero.
struct Layers {
  // Wall seconds of the timed execution phase (median pass) and the exact
  // counts of one pass, which the probes are multiplied by.
  double exec_s = 0;
  uint64_t contributions_sent = 0;
  uint64_t contributions = 0;  // contributors_participating
  uint64_t contributions_kept = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_sent = 0;
  uint64_t events = 0;
  uint64_t payload_reused = 0;
  uint64_t net_messages_sent = 0;

  double init_s = 0;
  double plan_ms = 0;
  double oracle_s = 0;
  double exec_start_ms = 0;
  double exec_finish_ms = 0;
  double collect_s = 0;
  double tail_s = 0;
  uint64_t max_exposure = 0;

  // parsim (the 2-shard passes of crowd_gs).
  double par_speedup = 0;
  double par_solo_share = 0;
  double par_windows_per_event = 0;
  double par_transfers_per_event = 0;
  double par_shard_load_skew = 0;
  double par_cpu_per_wall = 0;

  // sched / store / repair / recovery (tenant_mix only).
  double submit_ms = 0;
  double queue_wait_s_p50 = 0;
  double rejected_ratio = 0;
  double early_aborted_ratio = 0;
  double checkpoints_per_query = 0;
  double repair_attempted_per_query = 0;
  double repair_yield = 0;
  double recovery_resumed_per_crash = 0;

  // Probe shapes.
  data::TableView population;
  query::Query gs_query;
  std::vector<std::string> contrib_columns;
  // Rows a snapshot builder checkpoints when its snapshot completes.
  size_t checkpoint_rows = 1;
};

// --- Shared query shapes -----------------------------------------------------

// The query shapes and helpers below mirror bench/bench_util.h on purpose:
// the benchmark includes nothing from the experiment harness, so editing
// the harness can never change what the benchmark measures.

// The demo's Grouping Sets query (i) over the elderly population.
query::Query SurveyQuery(uint64_t cardinality, uint64_t query_id) {
  query::Query q;
  q.query_id = query_id;
  q.name = "health survey";
  q.kind = query::QueryKind::kGroupingSets;
  q.predicates = {{"age", query::CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = cardinality;
  q.grouping_sets = query::GroupingSetsSpec{
      {{"region"}, {"sex"}},
      {{query::AggregateFunction::kCount, "*"},
       {query::AggregateFunction::kAvg, "bmi"},
       {query::AggregateFunction::kAvg, "systolic_bp"}}};
  return q;
}

// The demo's K-Means query (ii).
query::Query ClusterQuery(uint64_t cardinality, uint64_t query_id) {
  query::Query q;
  q.query_id = query_id;
  q.name = "dependency clustering";
  q.kind = query::QueryKind::kKMeans;
  q.predicates = {{"age", query::CompareOp::kGt, data::Value(int64_t{65})}};
  q.snapshot_cardinality = cardinality;
  q.kmeans.k = 4;
  q.kmeans.features = {"age", "bmi", "systolic_bp", "chronic_count"};
  q.kmeans.cluster_aggregates = {
      {query::AggregateFunction::kAvg, "dependency"}};
  return q;
}

// A successful K-Means answer must cluster the qualifying points almost as
// well as the centralized reference (the bound the framework tests use).
constexpr double kMaxInertiaRatio = 1.5;

bool KMeansResultValid(const query::Query& q, const data::Table& result,
                       const ml::KMeansKnowledge& central,
                       const ml::Matrix& points) {
  std::vector<size_t> cols;
  for (const std::string& f : q.kmeans.features) {
    auto idx = result.schema().IndexOf("centroid_" + f);
    if (!idx.ok()) return false;
    cols.push_back(*idx);
  }
  ml::Matrix distributed;
  for (const auto& row : result.rows()) {
    std::vector<double> c;
    for (size_t col : cols) c.push_back(row[col].AsDouble());
    distributed.push_back(std::move(c));
  }
  if (distributed.empty()) return false;
  auto ratio = ml::InertiaRatio(points, distributed, central.centroids);
  return ratio.ok() && std::isfinite(*ratio) && *ratio < kMaxInertiaRatio;
}

// --- crowd_gs ----------------------------------------------------------------

// 250 000 members folded 512 to a contributor device; query (i) with a
// snapshot of a fifth of the crowd split over n = 5 partitions.
constexpr size_t kCrowdMembers = 250'000;
constexpr size_t kCrowdCohort = 512;
constexpr size_t kCrowdProcessors = 80;
constexpr int kCrowdSetups = 9;
constexpr size_t kCrowdParShards = 2;

core::FrameworkConfig CrowdConfig(uint64_t seed, size_t shards) {
  core::FrameworkConfig cfg;
  cfg.fleet.num_contributors = kCrowdMembers;
  cfg.fleet.contributor_cohort_size = kCrowdCohort;
  cfg.fleet.num_processors = kCrowdProcessors;
  cfg.fleet.enable_churn = false;
  // Operators run on home boxes. A mixed processor fleet makes the
  // simulated completion time bimodal across seeds (about 45 s or 56 s,
  // depending on whether a slower device class lands on the critical path).
  cfg.fleet.processor_mix = {0.0, 0.0, 1.0};
  cfg.data.num_individuals = kCrowdMembers;
  cfg.seed = seed;
  cfg.sim_shards = shards;
  return cfg;
}

struct CrowdPass {
  exec::ExecutionReport report;
  double wall_s = 0;
  double cpu_s = 0;
  double start_s = 0;
  double collect_s = 0;
  double tail_s = 0;
  double finish_s = 0;
};

// One execution of the planned query. Untraced passes call Execute; traced
// passes drive StartExecution / RunUntil / Finish themselves so each call
// gets a span (RunUntil split at the end of the collection window).
Result<CrowdPass> RunCrowdPass(core::EdgeletFramework* fw,
                               const exec::Deployment& d,
                               const exec::ExecutionConfig& ec, bool chunked) {
  CrowdPass p;
  const uint64_t qid = d.query.query_id;
  const double w0 = WallNow();
  const double c0 = CpuNow();
  if (!chunked) {
    auto r = fw->Execute(d, ec);
    if (!r.ok()) return r.status();
    p.report = std::move(*r);
  } else {
    SpanScope pass("pass", "bench", qid);
    fw->RetireCompletedExecutions();
    double t = WallNow();
    exec::QueryExecution* ex = nullptr;
    {
      SpanScope s("StartExecution", "exec", qid);
      auto started = fw->StartExecution(d, ec);
      if (!started.ok()) return started.status();
      ex = *started;
    }
    p.start_s = WallNow() - t;
    t = WallNow();
    {
      SpanScope s("RunUntil.collect", "net", qid);
      fw->transport()->RunUntil(ex->start_time() + ec.collection_window);
    }
    p.collect_s = WallNow() - t;
    t = WallNow();
    {
      SpanScope s("RunUntil.tail", "net", qid);
      fw->transport()->RunUntil(ex->end_time());
    }
    p.tail_s = WallNow() - t;
    t = WallNow();
    {
      SpanScope s("Finish", "exec", qid);
      Status st = ex->Finish();
      if (!st.ok()) return st;
    }
    p.finish_s = WallNow() - t;
    p.report = ex->report();
  }
  p.wall_s = WallNow() - w0;
  p.cpu_s = CpuNow() - c0;
  return p;
}

struct CrowdFramework {
  std::unique_ptr<core::EdgeletFramework> fw;
  exec::Deployment deployment;
  exec::ExecutionConfig ec;
};

Status BuildCrowd(uint64_t seed, size_t shards, CrowdFramework* out,
                  double* setup_s) {
  out->fw.reset();
  const double t0 = WallNow();
  {
    SpanScope s("Init", "core");
    out->fw =
        std::make_unique<core::EdgeletFramework>(CrowdConfig(seed, shards));
    EDGELET_RETURN_NOT_OK(out->fw->Init());
  }
  *setup_s = WallNow() - t0;
  return Status::OK();
}

Status PlanCrowd(uint64_t seed, CrowdFramework* c, double* plan_s) {
  const uint64_t c_card = kCrowdMembers / 5;
  query::Query q = SurveyQuery(c_card, 1);
  core::PrivacyConfig privacy;
  privacy.max_tuples_per_edgelet = (c_card + 4) / 5;  // n = 5
  const double t0 = WallNow();
  {
    SpanScope s("Plan", "core", q.query_id);
    auto d = c->fw->Plan(q, privacy, {0.05, 0.99},
                         exec::Strategy::kOvercollection);
    if (!d.ok()) return d.status();
    c->deployment = std::move(*d);
  }
  *plan_s = WallNow() - t0;
  c->ec.collection_window = 2 * kMinute;
  c->ec.deadline = 10 * kMinute;
  c->ec.inject_failures = false;
  c->ec.seed = seed ^ 0x5EED;
  return Status::OK();
}

// Verifies one successful crowd report against the centralized rerun.
bool VerifyCrowd(Run* run, const CrowdFramework& c,
                 const exec::ExecutionReport& report, double* oracle_s) {
  const double t0 = WallNow();
  SpanScope s("VerifyGroupingSets", "core", c.deployment.query.query_id);
  auto v = c.fw->VerifyGroupingSets(c.deployment, report);
  *oracle_s = WallNow() - t0;
  run->Gate(report.success, "crowd execution missed its deadline");
  run->Gate(v.ok() && v->valid,
            "crowd result differs from the centralized reference: " +
                (v.ok() ? v->detail : v.status().ToString()));
  return report.success && v.ok() && v->valid;
}

// The same seed on the parallel engine with 2 shards (never nproc): every
// pass must reproduce the serial fingerprint. The check is untimed in the
// end-to-end run; in the traced run its passes give the parsim metrics.
void RunSharded(Run* run, uint64_t serial_fp, double serial_exec_s,
                Layers* L) {
  CrowdFramework c;
  double setup = 0, plan_s = 0;
  Status st = BuildCrowd(run->seed, kCrowdParShards, &c, &setup);
  if (st.ok()) st = PlanCrowd(run->seed, &c, &plan_s);
  run->Gate(st.ok(), "2-shard set-up: " + st.ToString());
  if (!st.ok()) return;
  auto* psim = dynamic_cast<net::parsim::ParallelSimulator*>(c.fw->sim());
  run->Gate(psim != nullptr, "2-shard framework runs the serial engine");
  if (psim == nullptr) return;
  const size_t passes = run->trace ? 1 + kMinTimed : 1;
  net::parsim::ParallelSimulator::BatchStats b0;
  size_t events0 = 0;
  std::vector<double> wall, cpu_per_wall;
  for (size_t i = 0; i < passes; ++i) {
    if (i == 1) {
      b0 = psim->batch_stats();
      events0 = psim->events_executed();
    }
    auto p = RunCrowdPass(c.fw.get(), c.deployment, c.ec, run->trace);
    run->Gate(p.ok() && exec::ReportFingerprint(p->report) == serial_fp,
              "2-shard fingerprint differs from the serial engine's");
    if (!p.ok()) return;
    if (i > 0) {
      wall.push_back(p->wall_s);
      cpu_per_wall.push_back(p->cpu_s / p->wall_s);
    }
  }
  if (!run->trace) return;
  const auto b = psim->batch_stats();
  const double ev = static_cast<double>(psim->events_executed() - events0);
  L->par_speedup = Ratio(serial_exec_s, Median(wall));
  L->par_solo_share =
      Ratio(b.solo_windows - b0.solo_windows, b.windows - b0.windows);
  L->par_windows_per_event = Ratio(b.windows - b0.windows, ev);
  L->par_transfers_per_event = Ratio(b.transfers - b0.transfers, ev);
  L->par_cpu_per_wall = Median(cpu_per_wall);
  // Contribution destinations per shard: every (partition, vgroup)
  // builder chain receives an equal share of the snapshot.
  std::vector<double> load(psim->num_shards(), 0);
  for (const auto& partition : c.deployment.sb_groups) {
    for (const auto& group : partition) {
      if (!group.empty()) load[psim->ShardOf(group.front())] += 1;
    }
  }
  double total = 0, worst = 0;
  for (double l : load) {
    total += l;
    worst = std::max(worst, l);
  }
  L->par_shard_load_skew = Ratio(worst, total / load.size());
}

void RunCrowd(Run* run, Layers* L) {
  CrowdFramework c;
  double setup = 0, plan_s = 0;
  std::vector<double> setups;
  for (int i = 0; i < kCrowdSetups; ++i) {
    Status st = BuildCrowd(run->seed, 1, &c, &setup);
    run->Gate(st.ok(), "crowd set-up: " + st.ToString());
    if (!st.ok()) return;
    setups.push_back(setup);
  }
  Status st = PlanCrowd(run->seed, &c, &plan_s);
  run->Gate(st.ok(), "crowd plan: " + st.ToString());
  if (!st.ok()) return;
  L->init_s = Median(setups);
  L->plan_ms = plan_s * 1e3;

  // Warm-up pass: the one the oracle checks; every timed pass must match
  // its fingerprint.
  ++run->attempted;
  auto warm = RunCrowdPass(c.fw.get(), c.deployment, c.ec, run->trace);
  run->Gate(warm.ok(), "crowd warm-up pass failed");
  if (!warm.ok()) return;
  if (!VerifyCrowd(run, c, warm->report, &L->oracle_s)) return;
  const uint64_t warm_fp = exec::ReportFingerprint(warm->report);
  const size_t events_before = c.fw->sim()->events_executed();

  std::vector<CrowdPass> passes;
  const double t_begin = WallNow();
  while (passes.size() < kMinTimed || WallNow() - t_begin < run->seconds) {
    ++run->attempted;
    auto p = RunCrowdPass(c.fw.get(), c.deployment, c.ec, run->trace);
    run->Gate(p.ok(), "crowd pass failed");
    if (!p.ok()) return;
    run->Gate(exec::ReportFingerprint(p->report) == warm_fp,
              "crowd pass fingerprint differs from the warm-up pass");
    p->report = exec::ExecutionReport();  // keep only the timings
    passes.push_back(std::move(*p));
    if (passes.size() == kMinTimed) run->peak_rss_mib = PeakRssMib();
  }

  const exec::ExecutionReport& r = warm->report;
  std::vector<double> wall, start, collect, tail, finish;
  for (const CrowdPass& p : passes) {
    wall.push_back(p.wall_s);
    start.push_back(p.start_s);
    collect.push_back(p.collect_s);
    tail.push_back(p.tail_s);
    finish.push_back(p.finish_s);
  }
  const double exec_s = Median(wall);
  const double contribs = static_cast<double>(r.contributors_participating);
  std::printf("%s: %zu timed passes, wall s:", run->workload.c_str(),
              passes.size());
  for (double w : wall) std::printf(" %.3f", w);
  std::printf("\n");
  const uint64_t events_per_pass =
      (c.fw->sim()->events_executed() - events_before) / passes.size();

  run->Add("setup_s", Median(setups), "s");
  run->Add("contrib_per_s", contribs / exec_s, "1/s");
  run->Add("queries_per_s", 1.0 / exec_s, "1/s");
  run->Add("success_ratio", 1.0, "ratio");
  run->Add("response_s_p50", static_cast<double>(r.completion_time) / kSecond,
           "sim_s");
  run->Add("response_s_p90", static_cast<double>(r.completion_time) / kSecond,
           "sim_s");
  run->Add("wire_bytes_per_contrib", Ratio(r.bytes_sent, contribs), "B");
  run->Add("messages_per_contrib", Ratio(r.messages_sent, contribs), "count");
  run->Add("events_per_contrib", Ratio(events_per_pass, contribs), "count");

  L->exec_s = exec_s;
  L->contributions = r.contributors_participating;
  for (const auto& members : r.snapshot_contributors_by_vgroup) {
    L->contributions_kept += members.size();
  }
  L->messages_sent = r.messages_sent;
  L->messages_delivered = r.messages_delivered;
  L->bytes_sent = r.bytes_sent;
  L->events = events_per_pass;
  const net::NetworkStats ns = c.fw->network()->stats();
  L->payload_reused = ns.payload_buffers_reused;
  L->net_messages_sent = ns.messages_sent;
  L->exec_start_ms = Median(start) * 1e3;
  L->exec_finish_ms = Median(finish) * 1e3;
  L->collect_s = Median(collect);
  L->tail_s = Median(tail);
  L->max_exposure = r.max_observed_exposure_tuples;

  // Probe shapes: the crowd's own population, query and projection. The
  // view keeps the shared store alive after the framework is destroyed.
  if (run->trace) {
    L->population = c.fw->population_view();
    L->gs_query = c.deployment.query;
    L->contrib_columns = c.deployment.vgroup_columns.front();
    auto qual = query::FilterIndices(L->population, L->gs_query.predicates);
    if (qual.ok()) {
      L->contributions_sent =
          qual->size() * c.deployment.vgroup_columns.size();
    }
  }
  c.fw.reset();
  RunSharded(run, warm_fp, exec_s, L);
}

// --- tenant_mix --------------------------------------------------------------

// Many small tenants on one shared fleet. Processors are striped into
// 24-device slices (one tenant per slice at a time, so admission and not
// accidental role overlap decides concurrency); the last slice's tenants
// run under crash-with-recovery with repair on. Every third submission
// wave (12 tenants, one per slice) asks K-Means query (ii), the rest
// Grouping Sets query (i).
constexpr size_t kTenantContributors = 600;
constexpr size_t kSliceWidth = 24;
constexpr size_t kSlices = 12;
constexpr size_t kTenantConcurrency = 12;
constexpr size_t kTenantsOffered = 192;
constexpr SimDuration kTenantQueueWait = 45 * kMinute;
constexpr size_t kFaultySlice = kSlices - 1;

core::FrameworkConfig TenantConfig(uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.fleet.num_contributors = kTenantContributors;
  cfg.fleet.num_processors = kSliceWidth * kSlices;
  cfg.fleet.enable_churn = false;
  cfg.data.num_individuals = kTenantContributors;
  cfg.network.drop_probability = 0.0;
  cfg.seed = seed;
  return cfg;
}

// Waves 2, 5, 8, ... ask K-Means, so each slice sees both kinds; the first
// K-Means tenant is 2 * kSlices + 1.
bool TenantIsKMeans(uint64_t qid) { return (qid - 1) / kSlices % 3 == 2; }
size_t TenantSlice(uint64_t qid) { return (qid - 1) % kSlices; }

sched::SubmitRequest TenantRequest(core::EdgeletFramework& fw, uint64_t qid,
                                   uint64_t seed) {
  sched::SubmitRequest req;
  const bool km = TenantIsKMeans(qid);
  req.query = km ? ClusterQuery(60, qid) : SurveyQuery(60, qid);
  req.privacy.max_tuples_per_edgelet = 30;  // n = 2
  req.strategy = exec::Strategy::kOvercollection;
  const auto& procs = fw.fleet()->processors();
  const size_t slice = TenantSlice(qid);
  for (size_t i = slice * kSliceWidth; i < (slice + 1) * kSliceWidth; ++i) {
    req.processor_pool.push_back(procs[i]->id());
  }
  req.exec.collection_window = 60 * kSecond;
  req.exec.deadline = km ? 6 * kMinute : 4 * kMinute;
  req.exec.num_heartbeats = 4;
  req.exec.inject_failures = false;
  req.exec.seed = seed + qid * 131;
  req.max_queue_wait = kTenantQueueWait;
  if (slice == kFaultySlice) {
    req.exec.recovery.enabled = true;
    req.exec.repair.enabled = !km;
  }
  return req;
}

// Crash-with-recovery over the faulty slice: in every 4-minute window each
// of its processors crashes with probability 0.6 during the first minute
// (the collection window of a tenant started at the window's start) and
// reboots 60-120 s later. Operators resume from their sealed stores;
// overcollection (m = 2) absorbs most lost chains, and the rest go to
// repair.
size_t ScheduleTenantReboots(core::EdgeletFramework* fw, uint64_t seed) {
  std::vector<net::NodeId> victims;
  const auto& procs = fw->fleet()->processors();
  for (size_t i = kFaultySlice * kSliceWidth;
       i < (kFaultySlice + 1) * kSliceWidth; ++i) {
    victims.push_back(procs[i]->id());
  }
  Rng rng(Mix64(seed) ^ 0xC4A5);
  size_t crashes = 0;
  const SimDuration horizon = kTenantQueueWait + 6 * kMinute;
  for (SimTime w = 0; w < horizon; w += 4 * kMinute) {
    device::RebootPlan plan = device::PlanReboots(
        victims, 0.6, w + 5 * kSecond, w + 60 * kSecond, 60 * kSecond,
        120 * kSecond, &rng);
    crashes += plan.events.size();
    device::ScheduleReboots(fw->network(), plan);
  }
  return crashes;
}

struct TenantRound {
  double setup_s = 0;
  double submit_s = 0;
  double drain_s = 0;
  uint64_t fingerprint = 0;
  size_t crashes = 0;
  uint64_t events = 0;
  net::NetworkStats net;
  std::vector<sched::QueryOutcome> outcomes;
  std::unique_ptr<core::EdgeletFramework> fw;
};

Status RunTenantRound(uint64_t seed, TenantRound* r) {
  double t0 = WallNow();
  {
    SpanScope s("Init", "core");
    r->fw = std::make_unique<core::EdgeletFramework>(TenantConfig(seed));
    EDGELET_RETURN_NOT_OK(r->fw->Init());
    sched::ServiceConfig sc;
    sc.max_concurrent_queries = kTenantConcurrency;
    EDGELET_RETURN_NOT_OK(r->fw->ConfigureService(sc));
  }
  r->setup_s = WallNow() - t0;
  r->crashes = ScheduleTenantReboots(r->fw.get(), seed);
  t0 = WallNow();
  for (uint64_t qid = 1; qid <= kTenantsOffered; ++qid) {
    SpanScope s("Submit", "sched", qid);
    auto ticket = r->fw->Submit(TenantRequest(*r->fw, qid, seed));
    if (!ticket.ok()) return ticket.status();
  }
  r->submit_s = WallNow() - t0;
  t0 = WallNow();
  {
    SpanScope s("Drain", "sched");
    EDGELET_RETURN_NOT_OK(r->fw->Drain());
  }
  r->drain_s = WallNow() - t0;
  if (r->fw->scheduler()->busy()) {
    return Status::Internal("drain left queries in flight");
  }
  r->outcomes = r->fw->scheduler()->outcomes();
  r->events = r->fw->sim()->events_executed();
  r->net = r->fw->network()->stats();
  uint64_t fp = 0;
  for (const sched::QueryOutcome& o : r->outcomes) {
    fp = HashCombine(fp, static_cast<uint64_t>(o.state));
    if (o.state == sched::QueryState::kCompleted ||
        o.state == sched::QueryState::kEarlyAborted) {
      fp = HashCombine(fp, exec::ReportFingerprint(o.report));
    }
  }
  r->fingerprint = fp;
  return Status::OK();
}

// Checks every delivered result of a round; returns how many were valid.
size_t VerifyTenantRound(Run* run, TenantRound* r, double* oracle_s) {
  const double t0 = WallNow();
  SpanScope span("oracle", "core");
  core::EdgeletFramework& fw = *r->fw;
  const query::Query km = ClusterQuery(60, 2 * kSlices + 1);
  auto central = fw.CentralizedKMeans(km);
  auto points = fw.QualifyingPoints(km);
  run->Gate(central.ok() && points.ok(), "centralized K-Means failed");
  size_t valid = 0;
  for (const sched::QueryOutcome& o : r->outcomes) {
    if (o.state != sched::QueryState::kCompleted || !o.report.success) {
      continue;
    }
    bool ok = false;
    if (TenantIsKMeans(o.query_id)) {
      ok = central.ok() && points.ok() &&
           KMeansResultValid(o.deployment.query, o.report.result,
                             *central, *points);
    } else {
      auto v = fw.VerifyGroupingSets(o.deployment, o.report);
      ok = v.ok() && v->valid;
    }
    run->Gate(ok, "tenant " + std::to_string(o.query_id) +
                      " returned a successful but invalid result");
    if (ok) ++valid;
  }
  *oracle_s = WallNow() - t0;
  return valid;
}

// Times Plan, StartExecution and Finish of one tenant-shaped query of each
// kind on a private framework (inside Drain these calls are not visible).
void ProbeTenantCalls(uint64_t seed, Layers* L) {
  core::EdgeletFramework fw(TenantConfig(seed));
  if (!fw.Init().ok()) return;
  std::vector<double> plan, start, finish;
  for (int rep = 0; rep < 4; ++rep) {
    for (uint64_t qid : {uint64_t{1}, uint64_t{2 * kSlices + 1}}) {
      sched::SubmitRequest req = TenantRequest(fw, qid, seed);
      double t = WallNow();
      auto d = fw.Plan(req.query, req.privacy, req.resilience, req.strategy);
      plan.push_back(WallNow() - t);
      if (!d.ok()) continue;
      fw.RetireCompletedExecutions();
      t = WallNow();
      auto ex = fw.StartExecution(*d, req.exec);
      start.push_back(WallNow() - t);
      if (!ex.ok()) continue;
      fw.transport()->RunUntil((*ex)->end_time());
      t = WallNow();
      (void)(*ex)->Finish();
      finish.push_back(WallNow() - t);
    }
  }
  L->plan_ms = Median(plan) * 1e3;
  L->exec_start_ms = Median(start) * 1e3;
  L->exec_finish_ms = Median(finish) * 1e3;
}

void RunTenantMix(Run* run, Layers* L) {
  std::vector<double> setups, drains, submits;
  TenantRound warm;
  run->attempted += kTenantsOffered;
  Status st = RunTenantRound(run->seed, &warm);
  run->Gate(st.ok(), "tenant warm-up round: " + st.ToString());
  if (!st.ok()) return;
  setups.push_back(warm.setup_s);
  const size_t valid = VerifyTenantRound(run, &warm, &L->oracle_s);

  const double t_begin = WallNow();
  size_t rounds = 0;
  while (rounds < kMinTimed || WallNow() - t_begin < run->seconds) {
    TenantRound r;
    run->attempted += kTenantsOffered;
    ++rounds;
    Status s = RunTenantRound(run->seed, &r);
    run->Gate(s.ok(), "tenant round: " + s.ToString());
    if (!s.ok()) return;
    run->Gate(r.fingerprint == warm.fingerprint,
              "tenant round fingerprint differs from the warm-up round");
    setups.push_back(r.setup_s);
    drains.push_back(r.drain_s);
    submits.push_back(r.submit_s);
    if (rounds == kMinTimed) run->peak_rss_mib = PeakRssMib();
  }

  size_t admitted = 0, rejected = 0, aborted = 0;
  uint64_t contribs = 0, msgs = 0, delivered = 0, bytes = 0, checkpoints = 0;
  uint64_t repairs = 0, repaired = 0, resumed = 0, exposure = 0;
  std::vector<double> response, queue_wait;
  for (const sched::QueryOutcome& o : warm.outcomes) {
    if (o.state == sched::QueryState::kRejected) {
      ++rejected;
      continue;
    }
    ++admitted;
    if (o.state == sched::QueryState::kEarlyAborted) ++aborted;
    queue_wait.push_back(
        static_cast<double>(o.started_at - o.submitted_at) / kSecond);
    if (o.state == sched::QueryState::kCompleted && o.report.success) {
      response.push_back(
          static_cast<double>(o.finished_at - o.submitted_at) / kSecond);
    }
    const exec::ExecutionReport& rep = o.report;
    contribs += rep.contributors_participating;
    for (const auto& members : rep.snapshot_contributors_by_vgroup) {
      L->contributions_kept += members.size();
    }
    msgs += rep.messages_sent;
    delivered += rep.messages_delivered;
    bytes += rep.bytes_sent;
    checkpoints += rep.checkpoints_written;
    repairs += rep.repairs_attempted;
    repaired += rep.repairs_succeeded;
    resumed += rep.recoveries_resumed;
    exposure = std::max(exposure, rep.max_observed_exposure_tuples);
  }
  const double drain_s = Median(drains);
  const double c = static_cast<double>(contribs);
  std::printf("tenant_mix: %zu timed rounds, drain wall s:", drains.size());
  for (double d : drains) std::printf(" %.3f", d);
  std::printf("\n");

  run->Add("setup_s", Median(setups), "s");
  run->Add("contrib_per_s", c / drain_s, "1/s");
  run->Add("queries_per_s", kTenantsOffered / drain_s, "1/s");
  run->Add("success_ratio",
           static_cast<double>(valid) / static_cast<double>(kTenantsOffered),
           "ratio");
  run->Add("response_s_p50", Quantile(response, 0.5), "sim_s");
  run->Add("response_s_p90", Quantile(response, 0.9), "sim_s");
  run->Add("wire_bytes_per_contrib", Ratio(bytes, c), "B");
  run->Add("messages_per_contrib", Ratio(msgs, c), "count");
  run->Add("events_per_contrib", Ratio(warm.events, c), "count");
  std::printf("tenant_mix: %zu offered, %zu admitted, %zu valid, %zu "
              "rejected, %zu aborted, %zu delivered results; %zu rounds\n",
              kTenantsOffered, admitted, valid, rejected, aborted,
              response.size(), rounds + 1);

  L->exec_s = drain_s;
  L->contributions = contribs;
  L->messages_sent = msgs;
  L->messages_delivered = delivered;
  L->bytes_sent = bytes;
  L->events = warm.events;
  L->payload_reused = warm.net.payload_buffers_reused;
  L->net_messages_sent = warm.net.messages_sent;
  L->init_s = Median(setups);
  L->max_exposure = exposure;
  L->submit_ms = Median(submits) * 1e3 / kTenantsOffered;
  L->queue_wait_s_p50 = Quantile(queue_wait, 0.5);
  L->rejected_ratio = Ratio(rejected, kTenantsOffered);
  L->early_aborted_ratio = Ratio(aborted, kTenantsOffered);
  L->checkpoints_per_query = Ratio(checkpoints, admitted);
  L->repair_attempted_per_query = Ratio(repairs, admitted);
  L->repair_yield = Ratio(repaired, repairs);
  L->recovery_resumed_per_crash = Ratio(resumed, warm.crashes);

  if (run->trace) {
    ProbeTenantCalls(run->seed, L);
    L->population = warm.fw->population_view();
    L->gs_query = SurveyQuery(60, 1);
    L->contrib_columns = {"region", "sex", "bmi", "systolic_bp"};
    L->checkpoint_rows = 30;  // quota of an n = 2 tenant snapshot
    // Both query kinds share the predicate: every qualifying contributor
    // sends one contribution per vertical group of every admitted query.
    auto qual = query::FilterIndices(L->population, L->gs_query.predicates);
    for (const sched::QueryOutcome& o : warm.outcomes) {
      if (qual.ok() && o.state != sched::QueryState::kRejected) {
        L->contributions_sent +=
            qual->size() * o.deployment.vgroup_columns.size();
      }
    }
  }
}

// --- Layer probes ------------------------------------------------------------

// Isolated calls into each layer's public functions at the workload's own
// shapes. Each est_share multiplies a probe by the run's exact counts and
// divides by the measured execution wall time.
void RunProbes(uint64_t seed, Layers* L, std::vector<Metric>* out) {
  auto add = [&](const std::string& n, double v, const std::string& u) {
    out->push_back({n, v, u});
  };
  const double exec_ns = L->exec_s * 1e9;

  // data: generation and the one-row contribution codec.
  {
    data::HealthDataParams params;
    params.num_individuals = std::min<size_t>(L->population.num_rows(),
                                              200'000);
    params.num_individuals = std::max<uint64_t>(params.num_individuals, 1000);
    const double t0 = WallNow();
    data::ColumnTable gen = data::GenerateHealthColumns(params, seed);
    add("data.generate_ns_per_row",
        (WallNow() - t0) * 1e9 / params.num_individuals, "ns");
  }
  std::vector<size_t> qual_rows;
  if (auto qual = query::FilterIndices(L->population, L->gs_query.predicates);
      qual.ok()) {
    for (size_t i = 0; i < qual->size() && i < 4096; ++i) {
      qual_rows.push_back((*qual)[i]);
    }
  }
  double enc_ns = 0, dec_ns = 0;
  Bytes encoded;
  if (!qual_rows.empty()) {
    size_t k = 0;
    enc_ns = ProbeNs([&] {
      exec::ContributionMsg msg;
      msg.query_id = 1;
      msg.contributor_key = qual_rows[k % qual_rows.size()];
      auto rows = L->population.Slice(qual_rows[k % qual_rows.size()], 1)
                      .ProjectToTable(L->contrib_columns);
      if (rows.ok()) msg.rows = std::move(*rows);
      encoded = msg.Encode();
      ++k;
    });
    dec_ns = ProbeNs([&] {
      auto m = exec::ContributionMsg::Decode(encoded);
      if (!m.ok()) std::abort();
    });
  }
  add("data.contrib_encode_ns", enc_ns, "ns");
  add("data.contrib_decode_ns", dec_ns, "ns");
  add("data.est_share",
      Ratio((enc_ns + dec_ns) * L->contributions_sent, exec_ns), "ratio");

  // crypto: AEAD at the workload's wire bytes per contribution.
  const size_t payload = std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             Ratio(L->bytes_sent, L->contributions))));
  crypto::Key256 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  Bytes plain(payload, 0xA5), sealed, opened;
  const uint8_t aad[16] = {1, 2, 3};
  uint64_t seq = 0;
  const double seal_ns = ProbeNs([&] {
    crypto::AeadSealInto(key, crypto::NonceFromSequence(7, ++seq), aad,
                         sizeof(aad), plain.data(), plain.size(), &sealed);
  });
  const crypto::Nonce96 nonce = crypto::NonceFromSequence(7, seq);
  const double open_ns = ProbeNs([&] {
    if (!crypto::AeadOpenInto(key, nonce, aad, sizeof(aad), sealed.data(),
                              sealed.size(), &opened)
             .ok()) {
      std::abort();
    }
  });
  add("crypto.seal_ns", seal_ns, "ns");
  add("crypto.open_ns", open_ns, "ns");
  add("crypto.est_share",
      Ratio(seal_ns * L->messages_sent + open_ns * L->messages_delivered,
            exec_ns),
      "ratio");

  // tee: SealFor to a cached peer (warm) and to a fresh peer (cold, pays
  // the pairwise key derivation).
  {
    tee::TrustAuthority authority(seed);
    authority.set_expected_measurement(crypto::Sha256::Hash("edgelet-bench"));
    tee::Enclave enclave(1, "edgelet-bench", &authority);
    if (!enclave.Provision().ok()) std::abort();
    Bytes out;
    uint64_t s = 0, peer = 1000;
    add("tee.seal_for_ns_warm", ProbeNs([&] {
          (void)enclave.SealForInto(2, ++s, aad, sizeof(aad), plain, &out);
        }),
        "ns");
    add("tee.seal_for_ns_cold", ProbeNs([&] {
          (void)enclave.SealForInto(++peer, 1, aad, sizeof(aad), plain, &out);
        }),
        "ns");

    // store: sealed checkpoint log at the workload's snapshot checkpoint
    // size (the builder's rows in contribution encoding).
    Bytes rec(L->checkpoint_rows * std::max<size_t>(encoded.size(), 1), 0x5C);
    std::vector<double> append_us, replay_ms;
    for (int rep = 0; rep < 5; ++rep) {
      store::MemoryMedium medium;
      store::SealedLog log(&enclave, &medium);
      constexpr int kRecords = 64;
      const double t0 = WallNow();
      for (int i = 0; i < kRecords; ++i) (void)log.Append(rec);
      append_us.push_back((WallNow() - t0) * 1e6 / kRecords);
      store::SealedLog reader(&enclave, &medium);
      const double t1 = WallNow();
      auto replay = reader.Replay();
      replay_ms.push_back((WallNow() - t1) * 1e3);
      if (!replay.ok() || replay->records.size() != kRecords) std::abort();
    }
    add("store.append_us", Median(append_us), "us");
    add("store.replay_ms", Median(replay_ms), "ms");
  }

  // query: predicate scan and Grouping Sets over the population.
  {
    const size_t rows = std::max<size_t>(L->population.num_rows(), 1);
    const double scan_ns = ProbeNs(
        [&] {
          (void)query::FilterIndices(L->population, L->gs_query.predicates);
        },
        0.1, 1);
    add("query.scan_ns_per_row", scan_ns / rows, "ns");
    auto view = query::ApplyPredicates(L->population, L->gs_query.predicates);
    double gs_ns = 0;
    if (view.ok() && view->num_rows() > 0) {
      gs_ns = ProbeNs(
                  [&] {
                    (void)query::GroupingSetsResult::Compute(
                        *view, L->gs_query.grouping_sets);
                  },
                  0.1, 1) /
              view->num_rows();
    }
    add("query.gs_ns_per_row", gs_ns, "ns");
  }

  // ml: centralized K-Means at the K-Means tenants' snapshot size.
  {
    query::Query km = ClusterQuery(60, 3);
    auto view = query::ApplyPredicates(L->population, km.predicates);
    double km_ms = 0;
    if (view.ok() && view->num_rows() > 0) {
      auto pts = ml::ExtractPoints(view->Slice(0, 60), km.kmeans.features);
      if (pts.ok()) {
        ml::KMeansConfig kc;
        kc.k = km.kmeans.k;
        kc.seed = seed;
        km_ms = ProbeNs([&] {
                  if (!ml::RunKMeans(*pts, kc).ok()) std::abort();
                }, 0.05, 4) / 1e6;
      }
    }
    add("ml.kmeans_ms", km_ms, "ms");
  }

  // net: bare engine cost per event.
  {
    net::Simulator sim(seed);
    constexpr int kEvents = 200'000;
    uint64_t fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.ScheduleAt(static_cast<net::NodeId>(i % 1024), i + 1,
                     [&fired] { ++fired; });
    }
    const double t0 = WallNow();
    sim.RunUntil(kEvents + 1);
    const double event_ns = (WallNow() - t0) * 1e9 / kEvents;
    if (fired != kEvents) std::abort();
    add("net.event_ns", event_ns, "ns");
    add("net.events_per_s", Ratio(L->events, L->exec_s), "1/s");
    add("net.est_share", Ratio(event_ns * L->events, exec_ns), "ratio");
    add("net.payload_reuse_ratio",
        Ratio(L->payload_reused, L->net_messages_sent), "ratio");
    add("net.delivered_ratio", Ratio(L->messages_delivered, L->messages_sent),
        "ratio");
  }
}

// --- Output ------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Run& run) {
  for (const Metric& m : run.metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream js;
  js << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    js << (i == 0 ? "" : ", ") << "\"" << m.name
       << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload crowd_gs|tenant_mix --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else if (flag == "--trace-out") {
      run.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0) return Usage(argv[0]);
  if (run.workload != "crowd_gs" && run.workload != "tenant_mix") {
    return Usage(argv[0]);
  }
  if (!(run.seconds > 0)) return Usage(argv[0]);
  g_tracer.on = run.trace;

  const CpuJiffies host0 = ReadProcStat();
  const double calib_ns = CalibNs();

  Layers L;
  if (run.workload == "tenant_mix") {
    RunTenantMix(&run, &L);
  } else {
    RunCrowd(&run, &L);
  }
  if (run.failed > 0 || run.metrics.empty()) {
    run.metrics.clear();
    if (run.attempted == 0) run.attempted = 1;
    if (run.failed == 0) run.failed = 1;
    PrintResult(run);
    return 1;
  }
  run.metrics.push_back({"peak_rss_mib", run.peak_rss_mib, "MiB"});

  const CpuJiffies host1 = ReadProcStat();
  const double steal =
      Ratio(host1.steal - host0.steal, host1.total - host0.total);
  std::printf("host: steal_share %.4f calib_ns %.4f\n", steal, calib_ns);
  if (!run.trace) {
    PrintResult(run);
    return 0;
  }

  // Traced run: replace the end-to-end set by the per-layer set.
  std::vector<Metric> layer;
  auto add = [&](const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  };
  const size_t spans = g_tracer.size();
  const std::map<std::string, double> self = g_tracer.SelfSecondsByLayer();
  auto self_of = [&](const char* l) {
    auto it = self.find(l);
    return it == self.end() ? 0.0 : it->second;
  };
  add("core.init_s", L.init_s, "s");
  add("core.plan_ms", L.plan_ms, "ms");
  add("core.oracle_s", L.oracle_s, "s");
  RunProbes(run.seed, &L, &layer);
  add("parsim.speedup", L.par_speedup, "ratio");
  add("parsim.solo_share", L.par_solo_share, "ratio");
  add("parsim.windows_per_event", L.par_windows_per_event, "ratio");
  add("parsim.transfers_per_event", L.par_transfers_per_event, "ratio");
  add("parsim.shard_load_skew", L.par_shard_load_skew, "ratio");
  add("parsim.cpu_per_wall", L.par_cpu_per_wall, "ratio");
  add("exec.collect_s", L.collect_s, "s");
  add("exec.tail_s", L.tail_s, "s");
  add("exec.start_ms", L.exec_start_ms, "ms");
  add("exec.finish_ms", L.exec_finish_ms, "ms");
  add("exec.contrib_yield",
      Ratio(L.contributions_kept, L.contributions_sent), "ratio");
  add("sched.submit_ms", L.submit_ms, "ms");
  add("sched.queue_wait_s_p50", L.queue_wait_s_p50, "sim_s");
  add("sched.rejected_ratio", L.rejected_ratio, "ratio");
  add("sched.early_aborted_ratio", L.early_aborted_ratio, "ratio");
  add("store.checkpoints_per_query", L.checkpoints_per_query, "count");
  add("repair.attempted_per_query", L.repair_attempted_per_query, "count");
  add("repair.yield", L.repair_yield, "ratio");
  add("recovery.resumed_per_crash", L.recovery_resumed_per_crash, "ratio");
  add("privacy.max_exposure_tuples", static_cast<double>(L.max_exposure),
      "count");
  add("host.steal_share", steal, "ratio");
  add("host.calib_ns", calib_ns, "ns");
  add("host.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
      "count");
  add("trace.spans", static_cast<double>(spans), "count");
  add("trace.overhead_s", spans * SpanCostSeconds(), "s");
  add("trace.core_self_s", self_of("core"), "s");
  add("trace.exec_self_s", self_of("exec"), "s");
  add("trace.net_self_s", self_of("net"), "s");
  add("trace.sched_self_s", self_of("sched"), "s");
  add("trace.bench_self_s", self_of("bench"), "s");
  if (!run.trace_out.empty() && !g_tracer.WriteChromeJson(run.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", run.trace_out.c_str());
    run.metrics.clear();
    run.failed = 1;
    PrintResult(run);
    return 1;
  }
  run.metrics = std::move(layer);
  PrintResult(run);
  return 0;
}
