#pragma once

/// \file metrics.hpp
/// sfg_metrics (ISSUE 3): the always-on, low-overhead observability layer
/// in the spirit of IPM (the paper built everything in §5 — the fitted
/// communication model of Fig. 6, the runtime model of Fig. 7 and the
/// PSiNS 62K-core predictions — on *measured* per-rank comm/compute
/// fractions collected by an always-on profiler).
///
/// Three pieces:
///  1. a registry of named monotonic counters, gauges and fixed-bucket
///     histograms (for ad-hoc instrumentation anywhere in the stack),
///  2. per-rank, per-step PHASE TIMERS for the solver hot loop
///     (StepProfile + PhaseScope): each time step is decomposed into a
///     fixed taxonomy of disjoint phases whose durations sum to the step
///     wall time, plus nested sub-timers (attenuation) that overlap their
///     parents and are excluded from the sum invariant,
///  3. exporters: a human-readable end-of-run report (per-phase times,
///     comm fraction, message-size histogram, per-thread busy fractions —
///     directly comparable to Fig. 6 / bench_fig6_commtime) and a Chrome
///     `chrome://tracing` / Perfetto JSON timeline writer.
///
/// The same report shape can be produced from a live smpi::CommStats or
/// from a captured TraceEvent stream (summarize_comm_trace), so replayed
/// traces and real runs are read with the same tooling.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "runtime/smpi.hpp"

namespace sfg::metrics {

// ---- registry primitives ----

/// Monotonically increasing event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value gauge (e.g. "elements per rank", "overlap fraction").
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: bucket i counts samples v with v <= bounds[i]
/// (the last bucket is the overflow bucket, bound = +inf implied). Bounds
/// are fixed at registration so recording is a branch-free linear scan —
/// cheap for the short bucket lists used here.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v);
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// counts.size() == upper_bounds().size() + 1 (overflow last).
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const std::vector<double>& upper_bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Name -> metric registry. Lookup happens at registration time; hot paths
/// keep the returned reference (stable: metrics are never removed).
/// Not thread-safe: one registry per rank, like smpi::Communicator.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers on first use; later calls with the same name return the
  /// existing histogram (bounds of later calls are ignored).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The SimulationConfig knob (ISSUE 3). Default: on, report-only —
/// collection is a dozen clock reads per step (<2% measured on the NEX=8
/// globe, see bench_metrics_overhead); the timeline is opt-in because it
/// allocates per-slice events.
struct MetricsConfig {
  bool enabled = true;    ///< collect phase timers / counters
  bool timeline = false;  ///< additionally keep Chrome-trace slices
  std::size_t max_timeline_events = 1u << 20;  ///< cap (~24 MB)
};

// ---- solver phase taxonomy ----

/// The per-step phase taxonomy of the Newmark hot loop. Top-level phases
/// are disjoint: their per-step durations sum (within timer resolution and
/// loop overhead) to the step wall time. `AttenuationUpdate` is NESTED
/// inside the solid-force phases (the memory-variable update runs per
/// element inside them) and is excluded from the sum invariant.
enum class Phase : int {
  NewmarkPredictor = 0,  ///< displ/veloc predictor + accel reset
  FluidForces,           ///< fluid element kernels + coupling + mass divide
  SolidForces,           ///< legacy unsplit solid element loop
  SolidBoundary,         ///< colored schedule: halo-touching batches
  SolidInterior,         ///< colored schedule: batches overlapped w/ halo
  HaloBegin,             ///< assemble_add_begin (snapshot + post)
  HaloWait,              ///< assemble_add / _end (blocking comm time)
  SourceInjection,       ///< coupling/absorbing surface terms + sources
  MassUpdate,            ///< accel *= 1/M (+ Coriolis)
  NewmarkCorrector,      ///< velocity corrector half-steps
  SeismogramRecord,      ///< receiver interpolation + append
  AttenuationUpdate,     ///< NESTED: SLS memory-variable update
  ScheduleRound,         ///< NESTED: one color-schedule round
  LtsInterpolate,        ///< NESTED: cluster-interface time interpolation
  Count
};

inline constexpr int kNumPhases = static_cast<int>(Phase::Count);

const char* phase_name(Phase p);
/// Nested phases overlap a top-level phase and do not enter the
/// phase-sum-equals-wall-time invariant.
bool phase_is_nested(Phase p);

/// One timeline slice, Chrome-tracing style (times relative to the
/// profile's epoch, in seconds).
struct TimelineEvent {
  std::int32_t phase = 0;  ///< static_cast<int>(Phase)
  std::int32_t step = 0;   ///< time-step index the slice belongs to
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// Per-rank, per-step phase accounting. `record` accumulates a duration
/// into the current step; `end_step` closes the step with its measured
/// wall time. Totals, segment counts and (optionally) begin/end timeline
/// events are kept; per-step last breakdown supports the sum invariant
/// test without storing full history.
class StepProfile {
 public:
  StepProfile() : StepProfile(true, false) {}
  StepProfile(bool enabled, bool timeline,
              std::size_t max_timeline_events = 1u << 20);

  bool enabled() const { return enabled_; }
  bool timeline_enabled() const { return timeline_; }

  /// Seconds since this profile's epoch (construction).
  double now() const { return epoch_.seconds(); }

  void begin_step();
  /// Record `dur_s` of `phase` that began at `start_s` (profile time).
  void record(Phase phase, double start_s, double dur_s);
  void end_step(double step_wall_seconds);

  int steps() const { return steps_; }
  double total_wall_seconds() const { return total_wall_; }
  const std::array<double, kNumPhases>& phase_seconds() const {
    return totals_;
  }
  const std::array<std::uint64_t, kNumPhases>& phase_counts() const {
    return counts_;
  }
  /// Phase breakdown of the most recently completed step.
  const std::array<double, kNumPhases>& last_step_seconds() const {
    return last_step_;
  }
  double last_step_wall_seconds() const { return last_wall_; }

  /// Sum of non-nested phase seconds (the comparand of the wall-time
  /// invariant).
  double accounted_seconds() const;

  const std::vector<TimelineEvent>& timeline() const { return events_; }

  /// Restart support: overwrite the cumulative counters (checkpoint
  /// restore makes a resumed run carry the full history of the run it
  /// continues — see solver/checkpoint.cpp).
  void restore_counts(int steps,
                      const std::array<std::uint64_t, kNumPhases>& counts,
                      const std::array<double, kNumPhases>& seconds,
                      double total_wall_seconds);

 private:
  bool enabled_;
  bool timeline_;
  std::size_t max_events_;
  WallTimer epoch_;
  int steps_ = 0;
  double total_wall_ = 0.0;
  double last_wall_ = 0.0;
  std::array<double, kNumPhases> totals_{};
  std::array<std::uint64_t, kNumPhases> counts_{};
  std::array<double, kNumPhases> current_{};
  std::array<double, kNumPhases> last_step_{};
  std::vector<TimelineEvent> events_;
};

/// RAII phase timer: no-op when `profile` is null or disabled, otherwise
/// one clock read at entry and one at exit. Not meant for per-element
/// granularity — per-step phase boundaries only (~a dozen per step).
class PhaseScope {
 public:
  PhaseScope(StepProfile* profile, Phase phase)
      : profile_(profile != nullptr && profile->enabled() ? profile
                                                          : nullptr),
        phase_(phase),
        start_(profile_ != nullptr ? profile_->now() : 0.0) {}
  ~PhaseScope() { stop(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// End the scope early (idempotent).
  void stop() {
    if (profile_ == nullptr) return;
    profile_->record(phase_, start_, profile_->now() - start_);
    profile_ = nullptr;
  }

 private:
  StepProfile* profile_;
  Phase phase_;
  double start_;
};

// ---- communication summary (IPM-style) ----

/// Shared message-size bucketing: bucket i holds messages of
/// size <= 64 << i bytes; the last bucket is unbounded. Matches
/// smpi::CommStats::kMsgSizeBuckets.
inline constexpr int kMsgSizeBuckets = smpi::CommStats::kMsgSizeBuckets;
std::uint64_t msg_size_bucket_bound(int bucket);  ///< upper bound, bytes

/// Per-rank communication summary in the shape of an IPM banner; built
/// either from live smpi::CommStats or from a captured TraceEvent stream,
/// so real runs and PSiNS-style replays print identically.
struct CommSummary {
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
  double collective_seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_count = 0;
  std::uint64_t recv_count = 0;
  std::uint64_t collective_count = 0;
  std::array<std::uint64_t, kMsgSizeBuckets> sent_size_hist{};

  double total_seconds() const {
    return send_seconds + recv_seconds + collective_seconds;
  }
  /// comm / (comm + compute); the paper's §5 metric (1.9-4.2% measured).
  double comm_fraction(double compute_seconds) const;
};

CommSummary summarize_comm(const smpi::CommStats& stats);
/// Replay integration: the same summary from a captured event trace
/// (compute time is the trace's virtual-compute segments; pass the
/// replayed per-rank comm seconds if pricing on a model machine).
CommSummary summarize_comm_trace(const std::vector<smpi::TraceEvent>& trace);

// ---- end-of-run report ----

/// Everything the human-readable end-of-run report prints for one rank.
struct RunReport {
  std::string label;       ///< e.g. "globe NEX=8"
  int rank = 0;
  int nranks = 1;
  int nex = 0;             ///< 0 = unknown / not a globe run
  int steps = 0;
  double wall_seconds = 0.0;
  std::array<double, kNumPhases> phase_seconds{};
  std::array<std::uint64_t, kNumPhases> phase_counts{};
  CommSummary comm;
  bool has_comm = false;
  std::vector<double> thread_busy_seconds;  ///< per pool thread
  double thread_span_seconds = 0.0;         ///< summed parallel-region span
};

/// Write the per-phase table, comm fraction (the Fig. 6 comparable), the
/// message-size histogram and per-thread busy fractions.
void write_report(std::ostream& os, const RunReport& report);

// ---- Chrome tracing / Perfetto timeline ----

/// One rank's timeline for the merged trace file.
struct RankTimeline {
  int rank = 0;
  std::vector<TimelineEvent> events;
};

/// Write a `chrome://tracing` / Perfetto-loadable JSON trace: one pid per
/// rank, complete ("ph":"X") events with microsecond timestamps, sorted by
/// start time within each rank. The output is a single JSON object with a
/// `traceEvents` array.
void write_chrome_trace(std::ostream& os,
                        const std::vector<RankTimeline>& ranks);

}  // namespace sfg::metrics
