#pragma once

/// \file layerbench.hpp
/// Layer-by-layer benchmark of the NEX=8 globe solver and the sharded
/// campaign front-end. The benchmark reaches every layer only through its
/// public functions: `sphere` (build_globe_serial), `mesh`
/// (analyze_mesh_quality; schedule build inside the Simulation ctor),
/// `solver` (Simulation, step_profile, metrics_report), `kernels`
/// (best_batched_isa), `common` (ThreadPool, for the host triad), `service`
/// (ShardedFrontend, generate_workload, execute_job) and `io`/`service`
/// (ResultStore on the container backend).
///
/// A run measures one workload for a fixed number of seconds and prints one
/// JSON line: end-to-end metrics with tracing off, or per-layer metrics from
/// a separate traced run (spans kept in memory, written as a Chrome trace at
/// exit). See README.md in this directory for the workloads, metric
/// definitions and the prediction table.

#include <sched.h>

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "perf/metrics.hpp"
#include "service/frontend.hpp"
#include "solver/simulation.hpp"

namespace layerbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string repo_root = ".";         ///< checkout holding tests/golden
  std::string out_dir = ".bench_out";  ///< work dirs and trace files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: correctness, counts and the metric set of its mode.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per violated check
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed check unless `error` is empty.
  void check(const std::string& error) {
    if (error.empty()) return;
    correct = false;
    errors.push_back(error);
  }
};

class Tracer;

/// globe_1t. With options.trace the run emits per-layer metrics and
/// records spans into `tracer`; otherwise end-to-end metrics.
RunResult run_globe(const Options& options, Tracer& tracer);
/// campaign_zipf (cold = false) / campaign_cold (cold = true).
RunResult run_campaign(const Options& options, bool cold, Tracer& tracer);

// ---- statistics ----

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& values);
/// Median (mean of the middle two for an even count); 0 when empty.
/// Percentiles use sfg::service::percentile (nearest rank).
double median(std::vector<double> values);
/// The highest of p99/p95/p90/p75/p50 that leaves at least ten samples
/// beyond it (50 when none does) — the tail a sample of `n` can support.
double supported_tail_percentile(std::size_t n);
/// Per-index median across replays of one fixed sequence (the same golden
/// steps marched once per job, the same job shape once per probe): the
/// typical replay, robust to interference that hits only some replays.
/// Its length is that of the shortest replay.
std::vector<double> typical_replay(
    const std::vector<std::vector<double>>& replays);
/// One stderr line: median, the supported tail percentile and the count.
void describe_timing(std::ostream& os, const std::string& name,
                     const std::vector<double>& values,
                     const std::string& unit);

// ---- tracing ----

/// One span: a named interval on the benchmark clock. `parent` indexes the
/// span that caused it (-1 = root); spans of one campaign request share
/// `id` (-1 = not request-scoped). `track` becomes the Chrome-trace tid.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::int64_t id = -1;
  int track = 0;
};

/// In-memory span recorder. Disabled tracers record nothing (the
/// end-to-end runs), so call sites never branch on the mode.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Seconds on the benchmark clock (construction = 0).
  double now() const { return clock_.seconds(); }

  /// Record a finished span; returns its index (-1 when disabled).
  int add(std::string name, double start_s, double end_s, int parent = -1,
          std::int64_t id = -1, int track = 0);
  /// Close span `index` (opened by add with end = start) at `end_s`; a
  /// no-op for index -1.
  void end(int index, double end_s);

  /// Merge a solver timeline whose profile epoch sits at `epoch_s` on the
  /// benchmark clock; top-level phases go on `track`, nested phases on
  /// `track + 1` (the layout metrics::write_chrome_trace uses).
  void merge_solver_timeline(const sfg::metrics::RankTimeline& timeline,
                             double epoch_s, int track);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome-trace / Perfetto JSON: the `{"traceEvents":[...]}` object
  /// metrics::write_chrome_trace emits, complete ("X") events in us.
  void write_chrome_trace(std::ostream& os) const;

 private:
  bool enabled_;
  sfg::WallTimer clock_;
  std::vector<Span> spans_;
};

// ---- host probe ----

struct HostInfo {
  int nproc = 1;
  std::uint64_t llc_bytes = 0;    ///< sum over last-level cache instances
  std::uint64_t array_bytes = 0;  ///< triad array size (>= 4x llc_bytes)
  double stream_gbps = 0.0;       ///< best triad rate, computed bytes
  std::string isa;                ///< best_batched_isa()
};

/// nproc, the last-level cache size from sysfs, a STREAM triad over arrays
/// of at least 4x that size on a ThreadPool of nproc threads, and the
/// kernel ISA the solver dispatches to.
HostInfo probe_host();
double peak_rss_mb();

/// Pins the calling thread to CPU `index % nproc` for its lifetime, then
/// restores the previous affinity. Threads started meanwhile inherit the
/// pin. Set-up repetitions are spread over every CPU this way, so one CPU
/// slowed by a co-tenant cannot set the median.
class CpuPin {
 public:
  explicit CpuPin(int index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Cumulative host CPU jiffies from /proc/stat (all zero when absent):
/// steal and iowait show when other tenants disturbed a run.
struct CpuTimes {
  std::uint64_t total = 0, steal = 0, iowait = 0;
};
CpuTimes cpu_times();

// ---- correctness checks (each returns "" when satisfied) ----

/// Read a seismogram file in the tests/golden format ("t ux uy uz" lines,
/// '#' comments). Throws sfg::CheckError when missing or malformed.
sfg::Seismogram read_golden(const std::string& path);

/// The first `nsamples` samples of `got` lie within tol_rel * peak(ref) of
/// `ref`, on the same time axis.
std::string check_seismogram(const sfg::Seismogram& ref,
                             const sfg::Seismogram& got,
                             std::size_t nsamples, double tol_rel = 5e-6);

/// Campaign ledger: every submitted job is terminal, completed + failed +
/// rejected == submitted (ledger and counters agree), and executed equals
/// the number of distinct content keys submitted.
std::string check_ledger(const std::vector<sfg::service::FrontendJob>& jobs,
                         const sfg::service::FrontendStats& stats,
                         std::size_t distinct_keys);

/// Bitwise equality of two job results (times and displacements).
bool bit_identical(const sfg::service::JobResult& a,
                   const sfg::service::JobResult& b);

// ---- campaign workloads (pure functions of the seed) ----

/// One request of the load generator's stream: when it is due on the
/// generator clock, and what it asks for.
struct Arrival {
  double due_s = 0.0;
  sfg::service::JobRequest request;
};

/// campaign_zipf: open-loop Poisson arrivals at kZipfRate per second over
/// `seconds`, zipf s=1.1 popularity over a fixed event catalogue.
std::vector<Arrival> zipf_workload(std::uint64_t seed, double seconds);

/// campaign_cold: requests [first, first + count) of an endless stream with
/// pairwise distinct content keys and periodic checkpoints, all due at
/// t = 0 of their burst.
std::vector<Arrival> cold_workload(std::uint64_t seed, int first, int count);

}  // namespace layerbench
