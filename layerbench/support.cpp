// Statistics, the in-memory span tracer and the host probe.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <thread>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "kernels/force_kernel.hpp"
#include "layerbench.hpp"
#include "service/loadgen.hpp"

namespace layerbench {

// ---- statistics ----

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double supported_tail_percentile(std::size_t n) {
  // Integer form of (1 - p/100) * n >= 10, exact at the boundaries.
  for (std::size_t p : {99u, 95u, 90u, 75u})
    if ((100 - p) * n >= 1000) return static_cast<double>(p);
  return 50.0;
}

std::vector<double> typical_replay(
    const std::vector<std::vector<double>>& replays) {
  if (replays.empty()) return {};
  std::size_t n = replays.front().size();
  for (const auto& r : replays) n = std::min(n, r.size());
  std::vector<double> out(n), column(replays.size());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r = 0; r < replays.size(); ++r) column[r] = replays[r][k];
    out[k] = median(column);
  }
  return out;
}

void describe_timing(std::ostream& os, const std::string& name,
                     const std::vector<double>& values,
                     const std::string& unit) {
  const double tail = supported_tail_percentile(values.size());
  char line[256];
  std::snprintf(line, sizeof(line), "  %-24s median %.4g %s, p%.0f %.4g %s, n=%zu\n",
                name.c_str(), median(values), unit.c_str(), tail,
                sfg::service::percentile(values, tail), unit.c_str(), values.size());
  os << line;
}

// ---- tracing ----

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

int Tracer::add(std::string name, double start_s, double end_s, int parent,
                std::int64_t id, int track) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start_s, end_s, parent, id, track});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index, double end_s) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_s = end_s;
}

void Tracer::merge_solver_timeline(const sfg::metrics::RankTimeline& timeline,
                                   double epoch_s, int track) {
  if (!enabled_) return;
  for (const sfg::metrics::TimelineEvent& ev : timeline.events) {
    const auto phase = static_cast<sfg::metrics::Phase>(ev.phase);
    const double start = epoch_s + ev.start_s;
    add(sfg::metrics::phase_name(phase), start, start + ev.dur_s, -1, -1,
        sfg::metrics::phase_is_nested(phase) ? track + 1 : track);
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"layerbench\"}}";
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return spans_[a].start_s < spans_[b].start_s;
                   });
  for (std::size_t i : order) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"cat\":\"layerbench\",\"ph\":\"X\","
                  "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%lld}}",
                  json_escape(s.name).c_str(), s.track, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent,
                  static_cast<long long>(s.id));
    os << buf;
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

// ---- host probe ----

namespace {

/// Sum of the last-level cache instances reported by sysfs (0 if absent).
std::uint64_t llc_bytes() {
  namespace fs = std::filesystem;
  // level -> (shared_cpu_list -> size): one entry per cache instance.
  std::map<int, std::map<std::string, std::uint64_t>> caches;
  std::error_code ec;
  for (const auto& cpu : fs::directory_iterator("/sys/devices/system/cpu", ec)) {
    const std::string name = cpu.path().filename().string();
    if (name.rfind("cpu", 0) != 0 || name.size() < 4 ||
        name.find_first_not_of("0123456789", 3) != std::string::npos)
      continue;
    std::error_code ec2;
    for (const auto& idx : fs::directory_iterator(cpu.path() / "cache", ec2)) {
      auto slurp = [&](const char* file) {
        std::ifstream in(idx.path() / file);
        std::string v;
        std::getline(in, v);
        return v;
      };
      const std::string type = slurp("type");
      if (type == "Instruction" || type.empty()) continue;
      const std::string size = slurp("size");
      const std::string shared = slurp("shared_cpu_list");
      int level = 0;
      std::uint64_t bytes = 0;
      try {
        level = std::stoi(slurp("level"));
        bytes = std::stoull(size);
      } catch (const std::exception&) {
        continue;
      }
      if (size.find('K') != std::string::npos) bytes <<= 10;
      if (size.find('M') != std::string::npos) bytes <<= 20;
      caches[level][shared] = bytes;
    }
  }
  if (caches.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& [shared, bytes] : caches.rbegin()->second) total += bytes;
  return total;
}

/// STREAM triad a = b + s*c over three arrays of `array_bytes` each on a
/// ThreadPool of `threads`; best of five passes, 24 computed bytes per
/// element (no write-allocate).
double stream_triad_gbps(std::uint64_t array_bytes, int threads) {
  const std::size_t n = array_bytes / sizeof(double);
  // Uninitialised storage: the pool's first touch places the pages.
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  sfg::ThreadPool pool(threads);
  // First touch from the pool so pages land where the triad runs.
  pool.parallel_for_chunked(n, [&](int, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    sfg::WallTimer t;
    pool.parallel_for_chunked(n, [&](int, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double sec = t.seconds();
    best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) /
                              sec / 1e9);
  }
  if (a[n / 2] != 7.0) return 0.0;  // the triad did not run
  return best;
}

}  // namespace

HostInfo probe_host() {
  HostInfo h;
  h.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  h.llc_bytes = llc_bytes();
  h.array_bytes = std::max<std::uint64_t>(4 * h.llc_bytes, 64ull << 20);
  h.stream_gbps = stream_triad_gbps(h.array_bytes, h.nproc);
  h.isa = sfg::simd::isa_name(sfg::best_batched_isa());
  return h;
}

CpuPin::CpuPin(int index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int n = CPU_COUNT(&saved_);
  if (n < 2) return;
  int k = index % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  CpuTimes t;
  if (!in || cpu != "cpu") return t;
  for (std::uint64_t x : v) t.total += x;
  t.iowait = v[4];
  t.steal = v[7];
  return t;
}

}  // namespace layerbench
