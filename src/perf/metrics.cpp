#include "perf/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace sfg::metrics {

// ---- Histogram ----

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  SFG_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  SFG_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

// ---- Registry ----

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(name,
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  return *it->second;
}

// ---- phases ----

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::NewmarkPredictor: return "newmark_predictor";
    case Phase::FluidForces: return "fluid_forces";
    case Phase::SolidForces: return "solid_forces";
    case Phase::SolidBoundary: return "solid_boundary";
    case Phase::SolidInterior: return "solid_interior";
    case Phase::HaloBegin: return "halo_begin";
    case Phase::HaloWait: return "halo_wait";
    case Phase::SourceInjection: return "source_injection";
    case Phase::MassUpdate: return "mass_update";
    case Phase::NewmarkCorrector: return "newmark_corrector";
    case Phase::SeismogramRecord: return "seismogram_record";
    case Phase::AttenuationUpdate: return "attenuation_update";
    case Phase::ScheduleRound: return "schedule_round";
    case Phase::LtsInterpolate: return "lts_interpolate";
    case Phase::Count: break;
  }
  return "?";
}

bool phase_is_nested(Phase p) {
  // Nested phases run inside a top-level phase (attenuation inside the
  // solid loops; schedule rounds inside SolidBoundary/SolidInterior/
  // FluidForces; LTS interpolation inside NewmarkPredictor) and are
  // excluded from the wall-time-sum invariant.
  return p == Phase::AttenuationUpdate || p == Phase::ScheduleRound ||
         p == Phase::LtsInterpolate;
}

// ---- StepProfile ----

StepProfile::StepProfile(bool enabled, bool timeline,
                         std::size_t max_timeline_events)
    : enabled_(enabled),
      timeline_(enabled && timeline),
      max_events_(max_timeline_events) {}

void StepProfile::begin_step() {
  if (!enabled_) return;
  current_.fill(0.0);
}

void StepProfile::record(Phase phase, double start_s, double dur_s) {
  if (!enabled_) return;
  const auto i = static_cast<std::size_t>(phase);
  current_[i] += dur_s;
  totals_[i] += dur_s;
  ++counts_[i];
  if (timeline_ && events_.size() < max_events_) {
    TimelineEvent ev;
    ev.phase = static_cast<std::int32_t>(phase);
    ev.step = steps_;
    ev.start_s = start_s;
    ev.dur_s = dur_s;
    events_.push_back(ev);
  }
}

void StepProfile::end_step(double step_wall_seconds) {
  if (!enabled_) return;
  last_step_ = current_;
  last_wall_ = step_wall_seconds;
  total_wall_ += step_wall_seconds;
  ++steps_;
}

double StepProfile::accounted_seconds() const {
  double s = 0.0;
  for (int p = 0; p < kNumPhases; ++p)
    if (!phase_is_nested(static_cast<Phase>(p)))
      s += totals_[static_cast<std::size_t>(p)];
  return s;
}

void StepProfile::restore_counts(
    int steps, const std::array<std::uint64_t, kNumPhases>& counts,
    const std::array<double, kNumPhases>& seconds,
    double total_wall_seconds) {
  steps_ = steps;
  counts_ = counts;
  totals_ = seconds;
  total_wall_ = total_wall_seconds;
}

// ---- comm summaries ----

std::uint64_t msg_size_bucket_bound(int bucket) {
  return std::uint64_t{64} << bucket;
}

double CommSummary::comm_fraction(double compute_seconds) const {
  const double busy = total_seconds() + compute_seconds;
  return busy > 0.0 ? total_seconds() / busy : 0.0;
}

CommSummary summarize_comm(const smpi::CommStats& stats) {
  CommSummary s;
  s.send_seconds = stats.send_seconds;
  s.recv_seconds = stats.recv_seconds;
  s.collective_seconds = stats.collective_seconds;
  s.bytes_sent = stats.bytes_sent;
  s.bytes_received = stats.bytes_received;
  s.send_count = stats.send_count;
  s.recv_count = stats.recv_count;
  s.collective_count = stats.collective_count;
  s.sent_size_hist = stats.sent_size_hist;
  return s;
}

CommSummary summarize_comm_trace(
    const std::vector<smpi::TraceEvent>& trace) {
  using smpi::TraceEvent;
  CommSummary s;
  for (const TraceEvent& ev : trace) {
    switch (ev.kind) {
      case TraceEvent::Kind::Send:
        s.send_seconds += ev.mpi_seconds;
        s.bytes_sent += ev.bytes;
        ++s.send_count;
        ++s.sent_size_hist[static_cast<std::size_t>(
            smpi::msg_size_bucket(ev.bytes))];
        break;
      case TraceEvent::Kind::Recv:
        s.recv_seconds += ev.mpi_seconds;
        s.bytes_received += ev.bytes;
        ++s.recv_count;
        break;
      case TraceEvent::Kind::Barrier:
      case TraceEvent::Kind::Allreduce:
      case TraceEvent::Kind::Gather:
        s.collective_seconds += ev.mpi_seconds;
        ++s.collective_count;
        break;
      case TraceEvent::Kind::Fault:
        break;  // fault bookkeeping is not communication volume
    }
  }
  return s;
}

// ---- report writer ----

namespace {

std::string fmt_seconds(double s) {
  char buf[64];
  if (s >= 1.0)
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  else if (s >= 1e-3)
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  return buf;
}

std::string fmt_bytes(std::uint64_t b) {
  char buf[64];
  if (b >= (1ull << 30))
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(b) / (1ull << 30));
  else if (b >= (1ull << 20))
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(b) / (1ull << 20));
  else if (b >= (1ull << 10))
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(b) / (1ull << 10));
  else
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(b));
  return buf;
}

}  // namespace

void write_report(std::ostream& os, const RunReport& r) {
  os << "== sfg_metrics report";
  if (!r.label.empty()) os << " — " << r.label;
  os << " ==\n";
  os << "rank " << r.rank << "/" << r.nranks;
  if (r.nex > 0) os << ", NEX " << r.nex;
  os << ", " << r.steps << " steps, wall " << fmt_seconds(r.wall_seconds)
     << "\n";

  // Per-phase table. Percentages are of the summed top-level phase time so
  // they add to ~100; nested phases are flagged and excluded.
  double accounted = 0.0;
  for (int p = 0; p < kNumPhases; ++p)
    if (!phase_is_nested(static_cast<Phase>(p)))
      accounted += r.phase_seconds[static_cast<std::size_t>(p)];
  os << "\n  phase                 total        per step     share\n";
  for (int p = 0; p < kNumPhases; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (r.phase_counts[i] == 0) continue;
    const Phase ph = static_cast<Phase>(p);
    const double per_step =
        r.steps > 0 ? r.phase_seconds[i] / r.steps : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-20s  %-11s  %-11s  %5.1f %%%s\n",
                  phase_name(ph), fmt_seconds(r.phase_seconds[i]).c_str(),
                  fmt_seconds(per_step).c_str(),
                  accounted > 0.0 ? 100.0 * r.phase_seconds[i] / accounted
                                  : 0.0,
                  phase_is_nested(ph) ? "  (nested)" : "");
    os << line;
  }
  os << "  accounted " << fmt_seconds(accounted) << " of wall "
     << fmt_seconds(r.wall_seconds) << "\n";

  if (r.has_comm) {
    const CommSummary& c = r.comm;
    const double compute = std::max(0.0, r.wall_seconds - c.total_seconds());
    char line[256];
    std::snprintf(line, sizeof(line),
                  "\n  comm: %s (send %s, recv %s, coll %s) — "
                  "comm fraction %.2f %% (Fig. 6 metric)\n",
                  fmt_seconds(c.total_seconds()).c_str(),
                  fmt_seconds(c.send_seconds).c_str(),
                  fmt_seconds(c.recv_seconds).c_str(),
                  fmt_seconds(c.collective_seconds).c_str(),
                  100.0 * c.comm_fraction(compute));
    os << line;
    os << "  sent " << fmt_bytes(c.bytes_sent) << " in " << c.send_count
       << " msgs, received " << fmt_bytes(c.bytes_received) << " in "
       << c.recv_count << " msgs, " << c.collective_count
       << " collectives\n";
    os << "  message sizes (sent):\n";
    for (int b = 0; b < kMsgSizeBuckets; ++b) {
      const auto n = c.sent_size_hist[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      std::snprintf(line, sizeof(line), "    <= %-9s %llu\n",
                    b == kMsgSizeBuckets - 1
                        ? "inf"
                        : fmt_bytes(msg_size_bucket_bound(b)).c_str(),
                    static_cast<unsigned long long>(n));
      os << line;
    }
  }

  if (!r.thread_busy_seconds.empty() && r.thread_span_seconds > 0.0) {
    os << "\n  threads (busy fraction of " << r.thread_busy_seconds.size()
       << "-way parallel regions, span "
       << fmt_seconds(r.thread_span_seconds) << "):\n";
    for (std::size_t t = 0; t < r.thread_busy_seconds.size(); ++t) {
      char line[128];
      std::snprintf(line, sizeof(line), "    thread %-3zu %-11s %5.1f %%\n",
                    t, fmt_seconds(r.thread_busy_seconds[t]).c_str(),
                    100.0 * r.thread_busy_seconds[t] /
                        r.thread_span_seconds);
      os << line;
    }
  }
}

// ---- chrome trace writer ----

void write_chrome_trace(std::ostream& os,
                        const std::vector<RankTimeline>& ranks) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const RankTimeline& rt : ranks) {
    // Metadata: name the process after the rank.
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rt.rank
       << ",\"tid\":0,\"args\":{\"name\":\"rank " << rt.rank << "\"}}";

    std::vector<TimelineEvent> sorted = rt.events;
    std::sort(sorted.begin(), sorted.end(),
              [](const TimelineEvent& a, const TimelineEvent& b) {
                return a.start_s < b.start_s;
              });
    for (const TimelineEvent& ev : sorted) {
      const Phase ph = static_cast<Phase>(ev.phase);
      // Nested phases go on their own tid row so slices never overlap
      // within a row (Perfetto renders overlapping same-tid slices badly).
      const int tid = phase_is_nested(ph) ? 1 : 0;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"cat\":\"solver\",\"ph\":\"X\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"step\":%d}}",
                    phase_name(ph), rt.rank, tid, ev.start_s * 1e6,
                    ev.dur_s * 1e6, ev.step);
      os << buf;
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace sfg::metrics
