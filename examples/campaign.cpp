// The campaign service as a library use-case (ISSUE 5): the paper's §6
// multi-machine production campaign — many events planned ahead, priced
// with the §5 capacity models, surviving node failures — as a queued
// service over the repo's box-validation solver, served by a one-shard
// ShardedFrontend.
//
//   campaign [work_dir] [report.json]
//
// Submits a seeded mix of jobs (priorities, duplicates, one injected
// mid-job rank death with a 10-step checkpoint cadence), waits for the
// campaign to drain, prints the per-job ledger and writes the end-of-
// campaign JSON report. Results and scratch checkpoints go through the
// sfg_io container backend (ISSUE 8), so the whole campaign's cache is
// ONE results.sfgc file — the printed file count shows it.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "io/mesh_files.hpp"
#include "service/frontend.hpp"

using namespace sfg;
using namespace sfg::service;

int main(int argc, char** argv) {
  FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 4;
  cfg.shard_queue_capacity = 8;
  cfg.work_dir = argc > 1 ? argv[1] : "campaign_work";
  const std::string report_path =
      argc > 2 ? argv[2] : "campaign_report.json";

  ShardedFrontend svc(cfg);
  std::printf("campaign: %d workers, queue depth %zu, store %s (%s "
              "backend)\n\n",
              cfg.workers_per_shard, cfg.shard_queue_capacity,
              svc.store().dir().c_str(),
              io::io_backend_name(cfg.io_backend));

  JobRequest base;
  base.nex = 4;
  base.extent_m = 1000.0;
  base.source = {320.0, 480.0, 510.0, {1e9, 5e8, 0.0}, 14.0, 0.09};
  base.stations = {{700.0, 510.0, 480.0}, {260.0, 770.0, 700.0}};
  base.dt = 1.5e-3;
  base.nsteps = 50;

  // A dozen events at varying depth, serial and 2-rank, both models,
  // mixed priorities; the first eight resubmitted as duplicates.
  for (int i = 0; i < 12; ++i) {
    JobRequest r = base;
    r.nranks = (i % 2 == 0) ? 1 : 2;
    r.model = (i % 3 == 0) ? BoxModel::FluidLayer : BoxModel::UniformRock;
    r.source.z = 510.0 + 15.0 * i;
    r.priority = i % 3;
    svc.submit(r);
    if (i < 8) svc.submit(r);  // duplicate: coalesced or cache-served
  }
  // One job loses rank 1 at step 25; the 10-step cadence lets the retry
  // resume from step 20 instead of recomputing from scratch.
  JobRequest faulted = base;
  faulted.nranks = 2;
  faulted.source.z = 333.0;
  faulted.checkpoint_interval_steps = 10;
  faulted.fault = {1, 25};
  faulted.priority = 2;
  svc.submit(faulted);

  svc.wait_all();

  std::printf("  id  state      pri  attempts  resumed  cache  core-s\n");
  for (const FrontendJob& j : svc.jobs())
    std::printf("  %2d  %-9s  %3d  %8d  %7d  %5s  %.3g\n", j.id,
                job_state_name(j.state), j.request.priority, j.attempts,
                j.resumed_from_step, j.cache_hit ? "yes" : "no",
                j.predicted_core_seconds);

  const FrontendStats s = svc.stats();
  std::printf("\n%llu completed (%llu from cache), %llu retries; "
              "%.1f jobs/min\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.retries),
              s.jobs_per_minute());
  std::printf("priced %.3g core-s vs %.3g cold-restart core-s "
              "(checkpoint recovery saved %.1f%%)\n",
              s.priced_core_seconds, s.cold_restart_core_seconds,
              s.cold_restart_core_seconds > 0.0
                  ? 100.0 * (s.cold_restart_core_seconds -
                             s.priced_core_seconds) /
                        s.cold_restart_core_seconds
                  : 0.0);

  std::printf("result store: %zu cached results in %d file(s) "
              "(per-rank layout would use %zu)\n",
              svc.store().size(), svc.store().file_count(),
              svc.store().size());
  std::printf("work dir holds %d file(s) total for the whole campaign\n",
              directory_file_count(cfg.work_dir));

  std::ofstream report(report_path);
  svc.write_json_report(report);
  std::printf("wrote %s\n", report_path.c_str());
  return s.failed == 0 ? 0 : 1;
}
