// Campaign-service throughput bench (ISSUE 5): drives a seeded mix of
// jobs — duplicates, priorities, one injected mid-job rank death — through
// a one-shard ShardedFrontend and reports the service-level figures of
// merit: jobs/minute, cache hit rate, and the priced retry overhead versus
// the cold-restart alternative. Machine-readable JSON goes to STDOUT (the
// scripts/bench.sh contract for BENCH_service.json); the human-readable
// narration goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "service/frontend.hpp"

using namespace sfg;
using namespace sfg::service;

namespace {

std::string work_dir() {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir =
      std::string(tmp ? tmp : "/tmp") + "/sfg_bench_campaign";
  std::filesystem::remove_all(dir);  // cold store: measure real computes
  return dir;
}

JobRequest base_request() {
  JobRequest r;
  r.nex = 4;
  r.nranks = 2;
  r.extent_m = 1000.0;
  r.source.x = 320.0;
  r.source.y = 480.0;
  r.source.z = 510.0;
  r.source.force = {1e9, 5e8, 0.0};
  r.source.f0 = 14.0;
  r.source.t0 = 0.09;
  r.stations = {{700.0, 510.0, 480.0}, {260.0, 770.0, 700.0}};
  r.dt = 1.5e-3;
  r.nsteps = 50;
  return r;
}

}  // namespace

int main() {
  FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 4;
  cfg.shard_queue_capacity = 8;
  cfg.work_dir = work_dir();

  ShardedFrontend svc(cfg);
  int submitted = 0;
  // 12 distinct physics shapes...
  for (int i = 0; i < 12; ++i) {
    JobRequest r = base_request();
    r.nranks = (i % 2 == 0) ? 1 : 2;
    r.model = (i % 3 == 0) ? BoxModel::FluidLayer : BoxModel::UniformRock;
    r.source.z = 510.0 + 15.0 * i;
    r.priority = i % 3;
    svc.submit(r);
    ++submitted;
    // ...8 of which are also submitted as duplicates (cache-hit load).
    if (i < 8) {
      JobRequest dup = r;
      dup.priority = (i + 1) % 3;
      svc.submit(dup);
      ++submitted;
    }
  }
  // The fault scenario: rank 1 dies at step 25 of a 50-step job with a
  // 10-step checkpoint cadence (retry resumes from step 20).
  JobRequest faulted = base_request();
  faulted.source.z = 333.0;
  faulted.checkpoint_interval_steps = 10;
  faulted.fault.kill_rank = 1;
  faulted.fault.kill_step = 25;
  faulted.priority = 2;
  svc.submit(faulted);
  ++submitted;

  svc.wait_all();
  const FrontendStats s = svc.stats();
  svc.shutdown();

  const double retry_overhead_pct =
      s.priced_core_seconds > 0.0
          ? 100.0 * s.retry_overhead_core_seconds / s.priced_core_seconds
          : 0.0;
  const double cold_saving_pct =
      s.cold_restart_core_seconds > 0.0
          ? 100.0 * (s.cold_restart_core_seconds - s.priced_core_seconds) /
                s.cold_restart_core_seconds
          : 0.0;

  std::fprintf(stderr,
               "campaign bench: %d jobs (%llu completed, %llu cache hits, "
               "%llu retries) in %.2f s\n",
               submitted, static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.cache_hits),
               static_cast<unsigned long long>(s.retries), s.wall_seconds);
  std::fprintf(stderr,
               "  jobs/min %.1f | cache hit rate %.2f | retry overhead "
               "%.1f%% of priced core-seconds | checkpoint recovery saves "
               "%.1f%% vs cold re-run\n",
               s.jobs_per_minute(), s.cache_hit_rate(), retry_overhead_pct,
               cold_saving_pct);

  // The machine-readable record (stdout, one JSON object).
  std::printf("{\n");
  std::printf("  \"bench\": \"service_campaign\",\n");
  std::printf("  \"jobs_submitted\": %d,\n", submitted);
  std::printf("  \"jobs_completed\": %llu,\n",
              static_cast<unsigned long long>(s.completed));
  std::printf("  \"jobs_failed\": %llu,\n",
              static_cast<unsigned long long>(s.failed));
  std::printf("  \"jobs_per_minute\": %.3f,\n", s.jobs_per_minute());
  std::printf("  \"cache_hits\": %llu,\n",
              static_cast<unsigned long long>(s.cache_hits));
  std::printf("  \"cache_hit_rate\": %.4f,\n", s.cache_hit_rate());
  std::printf("  \"retries\": %llu,\n",
              static_cast<unsigned long long>(s.retries));
  std::printf("  \"mesh_cache_hits\": %llu,\n",
              static_cast<unsigned long long>(s.mesh_cache_hits));
  std::printf("  \"queue_peak\": %zu,\n", s.queue_peak);
  std::printf("  \"predicted_core_seconds\": %.6e,\n",
              s.predicted_core_seconds);
  std::printf("  \"priced_core_seconds\": %.6e,\n", s.priced_core_seconds);
  std::printf("  \"retry_overhead_core_seconds\": %.6e,\n",
              s.retry_overhead_core_seconds);
  std::printf("  \"retry_overhead_pct\": %.3f,\n", retry_overhead_pct);
  std::printf("  \"cold_restart_core_seconds\": %.6e,\n",
              s.cold_restart_core_seconds);
  std::printf("  \"checkpoint_recovery_saving_pct\": %.3f,\n",
              cold_saving_pct);
  std::printf("  \"wall_seconds\": %.3f\n", s.wall_seconds);
  std::printf("}\n");

  // Sanity gates so a regression fails the bench loudly instead of
  // emitting a quietly wrong record.
  if (s.failed != 0 || s.retries < 1 || s.cache_hits < 8 ||
      s.priced_core_seconds >= s.cold_restart_core_seconds) {
    std::fprintf(stderr, "campaign bench: FAILED sanity gates\n");
    return 1;
  }
  return 0;
}
