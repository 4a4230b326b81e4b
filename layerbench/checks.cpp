// Correctness checks and the seeded campaign workloads.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "layerbench.hpp"
#include "service/loadgen.hpp"

namespace layerbench {

namespace {

using sfg::service::FrontendJob;
using sfg::service::FrontendStats;
using sfg::service::JobState;

/// Offered rate of campaign_zipf (requests per second): well below the
/// fleet's capacity even while the cold store misses, so latency measures
/// the tiers rather than a backlog.
constexpr double kZipfRate = 100.0;
/// Steps per campaign_zipf job: short marches keep the solver's share of
/// the workload small.
constexpr int kZipfJobSteps = 20;
/// Event catalogue of campaign_zipf: its distinct keys per shard exceed
/// the per-shard LRU (campaign.cpp), so requests are served from all
/// three tiers.
constexpr int kZipfEvents = 384;
/// Checkpoint cadence of campaign_cold requests: two periodic checkpoints
/// per 40-step job. Each is a container commit with an fsync, whose latency
/// on a shared disk swings with other tenants' I/O.
constexpr int kColdCheckpointSteps = 20;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// ---- seismograms ----

sfg::Seismogram read_golden(const std::string& path) {
  std::ifstream in(path);
  SFG_CHECK_MSG(in.good(), "cannot open golden seismogram " << path);
  sfg::Seismogram s;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    double t = 0.0, ux = 0.0, uy = 0.0, uz = 0.0;
    ls >> t >> ux >> uy >> uz;
    SFG_CHECK_MSG(!ls.fail(), "malformed golden line in " << path << ": "
                                                          << line);
    s.time.push_back(t);
    s.displ.push_back({ux, uy, uz});
  }
  SFG_CHECK_MSG(!s.time.empty(), "golden seismogram " << path << " is empty");
  return s;
}

std::string check_seismogram(const sfg::Seismogram& ref,
                             const sfg::Seismogram& got, std::size_t nsamples,
                             double tol_rel) {
  std::ostringstream err;
  if (ref.time.size() < nsamples || got.time.size() < nsamples) {
    err << "seismogram has " << got.time.size() << " samples, reference "
        << ref.time.size() << ", need " << nsamples;
    return err.str();
  }
  double peak = 0.0;
  for (std::size_t i = 0; i < nsamples; ++i)
    for (double c : ref.displ[i]) peak = std::max(peak, std::abs(c));
  if (!(peak > 0.0)) return "reference seismogram is all zeros";
  const double tol = tol_rel * peak;
  const double time_tol = 1e-12 * std::abs(ref.time[nsamples - 1]);
  for (std::size_t i = 0; i < nsamples; ++i) {
    if (!(std::abs(ref.time[i] - got.time[i]) <= time_tol)) {
      err << "time axis differs at sample " << i << ": " << got.time[i]
          << " vs " << ref.time[i];
      return err.str();
    }
    for (int c = 0; c < 3; ++c) {
      const double d = std::abs(ref.displ[i][static_cast<std::size_t>(c)] -
                                got.displ[i][static_cast<std::size_t>(c)]);
      if (!(d <= tol)) {
        err << "sample " << i << " component " << c << " deviates by " << d
            << " > " << tol << " (5e-6 * peak)";
        return err.str();
      }
    }
  }
  return "";
}

// ---- campaign ledger ----

std::string check_ledger(const std::vector<FrontendJob>& jobs,
                         const FrontendStats& stats,
                         std::size_t distinct_keys) {
  std::uint64_t done = 0, failed = 0, rejected = 0, pending = 0;
  for (const FrontendJob& j : jobs) {
    switch (j.state) {
      case JobState::Done: ++done; break;
      case JobState::Failed: ++failed; break;
      case JobState::Rejected: ++rejected; break;
      default: ++pending; break;
    }
  }
  std::ostringstream err;
  if (jobs.size() != stats.submitted)
    err << "ledger holds " << jobs.size() << " jobs but " << stats.submitted
        << " were submitted";
  else if (pending > 0)
    err << pending << " submitted jobs never reached a terminal state";
  else if (done != stats.completed || failed != stats.failed ||
           rejected != stats.rejected)
    err << "ledger states (done " << done << ", failed " << failed
        << ", rejected " << rejected << ") disagree with the counters";
  else if (stats.completed + stats.failed + stats.rejected != stats.submitted)
    err << "completed + failed + rejected = "
        << stats.completed + stats.failed + stats.rejected << " != submitted "
        << stats.submitted;
  else if (stats.executed != distinct_keys)
    err << "executed " << stats.executed << " jobs for " << distinct_keys
        << " distinct keys";
  return err.str();
}

bool bit_identical(const sfg::service::JobResult& a,
                   const sfg::service::JobResult& b) {
  if (a.seismograms.size() != b.seismograms.size()) return false;
  for (std::size_t s = 0; s < a.seismograms.size(); ++s) {
    const sfg::Seismogram& x = a.seismograms[s];
    const sfg::Seismogram& y = b.seismograms[s];
    if (x.time.size() != y.time.size() || x.displ.size() != y.displ.size())
      return false;
    if (std::memcmp(x.time.data(), y.time.data(),
                    x.time.size() * sizeof(double)) != 0 ||
        std::memcmp(x.displ.data(), y.displ.data(),
                    x.displ.size() * sizeof(x.displ[0])) != 0)
      return false;
  }
  return true;
}

// ---- workloads ----

std::vector<Arrival> zipf_workload(std::uint64_t seed, double seconds) {
  sfg::service::LoadgenConfig cfg;
  cfg.seed = seed;
  cfg.num_requests = std::max(1, static_cast<int>(std::lround(kZipfRate * seconds)));
  cfg.arrivals_per_second = kZipfRate;
  cfg.num_events = kZipfEvents;
  cfg.zipf_s = 1.1;
  cfg.base = sfg::service::loadgen_base_request();
  cfg.base.nsteps = kZipfJobSteps;
  const auto stream = sfg::service::generate_workload(cfg);
  // Stretch the Poisson stream so its last arrival falls at `seconds`:
  // every seed offers exactly kZipfRate over the measured window.
  const double scale = seconds / stream.back().arrival_s;
  std::vector<Arrival> out;
  out.reserve(stream.size());
  for (const auto& t : stream) out.push_back({t.arrival_s * scale, t.request});
  return out;
}

std::vector<Arrival> cold_workload(std::uint64_t seed, int first, int count) {
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int i = first; i < first + count; ++i) {
    // A one-event catalogue per request, seeded per index: each request
    // gets its own source jitter, hence its own content key.
    sfg::service::LoadgenConfig cfg;
    cfg.seed = splitmix(seed ^ splitmix(static_cast<std::uint64_t>(i)));
    cfg.num_requests = 1;
    cfg.num_events = 1;
    cfg.base = sfg::service::loadgen_base_request();
    Arrival a;
    a.request = sfg::service::generate_workload(cfg).front().request;
    a.request.checkpoint_interval_steps = kColdCheckpointSteps;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace layerbench
