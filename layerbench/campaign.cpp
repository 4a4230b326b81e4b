// campaign_zipf / campaign_cold: traffic from one generator thread into a
// ShardedFrontend of 1-worker shards over a cold container result store,
// then a probe that re-executes sampled requests directly and stores them
// in a store of its own.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "layerbench.hpp"
#include "service/loadgen.hpp"
#include "service/worker.hpp"

namespace layerbench {

namespace {

namespace fs = std::filesystem;
using namespace sfg::service;

/// Shards (one worker each) of campaign_zipf, whose workers mostly wait.
constexpr int kZipfShards = 4;
/// Shards of campaign_cold, whose workers never wait: two busy workers
/// plus the generator leave a vCPU of the 4 free, so the hypervisor's
/// scheduling of other tenants moves its throughput less.
constexpr int kColdShards = 2;
constexpr std::size_t kQueueCapacity = 32;
/// Memory-tier entries per shard: fewer than each shard's share of the
/// zipf workload's distinct keys, so store hits occur beside memory hits.
constexpr std::size_t kLruPerShard = 24;
/// campaign_cold burst size: above the fleet's total queue capacity
/// (2 x 32), so submits spill off-home, workers steal and backpressure
/// blocks the generator.
constexpr int kColdBurst = 192;
/// campaign_cold generates its stream during set-up, as campaign_zipf
/// does, sized for this many jobs per second of the window: several times
/// what the fleet completes. A faster fleet extends it burst by burst.
constexpr double kColdStreamRate = 200.0;
constexpr int kSetupReps = 41;
constexpr int kProbes = 32;

FrontendConfig fleet_config(const std::string& dir, int shards) {
  FrontendConfig f;
  f.num_shards = shards;
  f.workers_per_shard = 1;
  f.shard_queue_capacity = kQueueCapacity;
  f.lru_entries_per_shard = kLruPerShard;
  f.work_dir = dir;
  f.io_backend = sfg::io::IoBackendKind::Container;
  return f;
}

/// Sleep until `due_s` on the benchmark clock, spinning the last 200 us so
/// the generator's own lateness stays small.
void wait_until(const Tracer& tr, double due_s) {
  for (double rem = due_s - tr.now(); rem > 0.0; rem = due_s - tr.now())
    if (rem > 300e-6)
      std::this_thread::sleep_for(std::chrono::duration<double>(rem - 200e-6));
}

/// What the generator saw of one submission (benchmark clock).
struct Sent {
  int id = -1;
  double due_s = 0.0;
  double submit_s = 0.0;      ///< submit() entered
  double submit_end_s = 0.0;  ///< submit() returned
};

/// The solver steps of `r`'s job, timed one by one: its cached mesh, its
/// dt, its Ricker point force and its stations, as the worker sets them up.
std::vector<double> time_job_steps(const JobRequest& r, MeshCache& cache,
                                   Tracer& tr, int id) {
  const auto slice = cache.get(r, 0);
  sfg::SimulationConfig cfg;
  cfg.dt = r.dt;
  cfg.metrics.enabled = false;
  sfg::Simulation sim(slice->mesh, cache.basis(), slice->materials, cfg);
  sfg::PointSource src;
  src.x = r.source.x;
  src.y = r.source.y;
  src.z = r.source.z;
  src.force = r.source.force;
  src.stf = sfg::ricker_wavelet(r.source.f0, r.source.t0);
  sim.add_source(src);
  for (const StationSpec& st : r.stations) sim.add_receiver(st.x, st.y, st.z);
  std::vector<double> step_ms;
  for (int s = 0; s < r.nsteps; ++s) {
    const double s0 = tr.now();
    sim.step();
    const double s1 = tr.now();
    step_ms.push_back((s1 - s0) * 1e3);
    tr.add("solver.step", s0, s1, -1, id, 2);
  }
  return step_ms;
}

}  // namespace

RunResult run_campaign(const Options& o, bool cold, Tracer& tr) {
  RunResult res;
  const std::string work = o.out_dir + "/" + o.workload + "_work";
  fs::remove_all(work);
  fs::create_directories(work);

  // ---- set-up: workload generation + front-end construction, repeated;
  // the last front-end serves the traffic ----
  std::vector<double> setup_s;
  std::vector<Arrival> arrivals;
  std::unique_ptr<ShardedFrontend> fe;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (fe) fe->shutdown();
    fe.reset();
    // Thrown-away repetitions rotate over the CPUs; the kept one runs
    // unpinned, since its workers inherit the caller's affinity.
    std::optional<CpuPin> pin;
    if (rep + 1 < kSetupReps) pin.emplace(rep);
    const std::string dir = work + "/fleet" + std::to_string(rep);
    fs::remove_all(dir);
    const double t0 = tr.now();
    arrivals =
        cold ? cold_workload(o.seed, 0,
                             kColdBurst * static_cast<int>(std::ceil(
                                              kColdStreamRate * o.seconds /
                                              kColdBurst)))
             : zipf_workload(o.seed, o.seconds);
    fe = std::make_unique<ShardedFrontend>(
        fleet_config(dir, cold ? kColdShards : kZipfShards));
    const double t1 = tr.now();
    tr.add("setup", t0, t1);
    setup_s.push_back(t1 - t0);
  }

  // ---- traffic ----
  std::vector<Sent> sent;
  std::set<RequestKey> distinct;
  std::vector<int> first_of_key;  ///< job id of each key's first request
  // Bursts of the traffic: campaign_cold's bursts, or campaign_zipf's one
  // window. Each is summarised alone and the summaries' medians reported.
  std::vector<std::size_t> burst_begin;  ///< first index into `sent`
  std::vector<double> burst_wall_s;
  auto submit = [&](const Arrival& a, double due_s) {
    wait_until(tr, due_s);
    Sent s;
    s.due_s = due_s;
    s.submit_s = tr.now();
    s.id = fe->submit(a.request);
    s.submit_end_s = tr.now();
    if (distinct.insert(request_key(a.request)).second)
      first_of_key.push_back(s.id);
    sent.push_back(s);
  };
  const double window0 = tr.now();
  if (!cold) {
    burst_begin.push_back(0);
    for (const Arrival& a : arrivals) submit(a, window0 + a.due_s);
    fe->wait_all();
  } else {
    for (std::size_t first = 0;
         first == 0 || tr.now() - window0 < o.seconds; first += kColdBurst) {
      if (first + kColdBurst > arrivals.size()) {
        const auto more = cold_workload(o.seed, static_cast<int>(first),
                                        kColdBurst);
        arrivals.insert(arrivals.end(), more.begin(), more.end());
      }
      burst_begin.push_back(sent.size());
      const double due = tr.now();
      for (std::size_t i = first; i < first + kColdBurst; ++i)
        submit(arrivals[i], due);
      fe->wait_all();
      burst_wall_s.push_back(tr.now() - due);
    }
  }
  burst_begin.push_back(sent.size());
  fe->shutdown();

  // ---- ledger: latency from each request's due time, per tier ----
  const std::vector<FrontendJob> jobs = fe->jobs();
  const FrontendStats stats = fe->stats();
  const std::vector<ShardStats> shards = fe->shard_stats();
  std::vector<double> latency_ms, lag_ms, submit_us;
  std::vector<double> tier_ms[4];  // memory, store, coalesced, miss
  std::vector<double> done_ms(sent.size(), -1.0);  ///< -1 = not done
  double last_done_s = window0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    const FrontendJob& j = jobs[static_cast<std::size_t>(s.id)];
    lag_ms.push_back((s.submit_s - s.due_s) * 1e3);
    submit_us.push_back((s.submit_end_s - s.submit_s) * 1e6);
    if (j.state == JobState::Done) {
      const double done_s = s.submit_s + j.latency_seconds();
      last_done_s = std::max(last_done_s, done_s);
      const double ms = (done_s - s.due_s) * 1e3;
      latency_ms.push_back(ms);
      done_ms[i] = ms;
      const int tier = !j.cache_hit ? 3
                       : j.coalesced ? 2
                       : j.tier == CacheTier::Memory ? 0
                                                     : 1;
      tier_ms[tier].push_back(ms);
      const int track = 100 + s.id % 32;
      const int root = tr.add("request", s.due_s, done_s, -1, s.id, track);
      tr.add("loadgen.lag", s.due_s, s.submit_s, root, s.id, track);
      tr.add("frontend.submit", s.submit_s, s.submit_end_s, root, s.id,
             track);
      if (done_s > s.submit_end_s)
        tr.add(tier == 3 ? "frontend.queue_and_execute" : "frontend.await",
               s.submit_end_s, done_s, root, s.id, track);
    }
  }
  if (!cold) burst_wall_s.push_back(std::max(last_done_s - window0, 1e-9));
  std::vector<double> burst_p50, burst_p95, burst_rate;
  for (std::size_t b = 0; b + 1 < burst_begin.size(); ++b) {
    std::vector<double> burst;
    for (std::size_t i = burst_begin[b]; i < burst_begin[b + 1]; ++i)
      if (done_ms[i] >= 0.0) burst.push_back(done_ms[i]);
    burst_p50.push_back(median(burst));
    burst_p95.push_back(percentile(burst, 95.0));
    burst_rate.push_back(60.0 * static_cast<double>(burst.size()) /
                         burst_wall_s[b]);
  }
  res.attempted = stats.submitted;
  res.failed = stats.failed + stats.rejected;
  res.check(check_ledger(jobs, stats, distinct.size()));
  if (fe->store().file_count() != 1)
    res.check("fleet result store holds " +
              std::to_string(fe->store().file_count()) + " files, not 1");

  // ---- probe: direct execute_job on sampled requests, bit-compared with
  // the fleet's stored results, then put/load through a store of its own;
  // and the same requests' solver steps timed one by one ----
  const sfg::GllBasis basis(4);
  MeshCache probe_cache(basis);
  ResultStore probe_store(work + "/probe_store",
                          sfg::io::IoBackendKind::Container);
  std::vector<double> execute_ms, put_ms, load_ms;
  std::vector<std::vector<double>> probe_steps;
  const std::size_t nprobe =
      std::min<std::size_t>(kProbes, first_of_key.size());
  for (std::size_t p = 0; p < nprobe; ++p) {
    const int id = first_of_key[p * first_of_key.size() / nprobe];
    const FrontendJob& j = jobs[static_cast<std::size_t>(id)];
    const double t0 = tr.now();
    const ExecutionOutcome out = execute_job(
        j.request, probe_cache, work + "/probe_jobs/" + std::to_string(p),
        /*max_retries=*/2, sfg::io::IoBackendKind::Container);
    const double t1 = tr.now();
    probe_store.store(j.key, out.result);
    const double t2 = tr.now();
    const auto reloaded = probe_store.load(j.key);
    const double t3 = tr.now();
    const auto fleet = fe->result(id);
    const int root = tr.add("probe", t0, t3, -1, id, 1);
    tr.add("worker.execute_job", t0, t1, root, id, 1);
    tr.add("store.put", t1, t2, root, id, 1);
    tr.add("store.load", t2, t3, root, id, 1);
    execute_ms.push_back((t1 - t0) * 1e3);
    put_ms.push_back((t2 - t1) * 1e3);
    load_ms.push_back((t3 - t2) * 1e3);
    if (!fleet || !bit_identical(out.result, *fleet))
      res.check("probe of job " + std::to_string(id) +
                ": execute_job result differs from the fleet's stored result");
    if (!reloaded || !bit_identical(out.result, *reloaded))
      res.check("probe store returned a different result for job " +
                std::to_string(id));
    probe_steps.push_back(time_job_steps(j.request, probe_cache, tr, id));
  }
  if (probe_store.file_count() != 1)
    res.check("probe result store holds " +
              std::to_string(probe_store.file_count()) + " files, not 1");

  // Every probe marches the same job shape: report its typical steps,
  // step_ms as their mean (the typical job's wall time per step).
  const std::vector<double> step_ms = typical_replay(probe_steps);
  std::cerr << "  " << stats.submitted << " submitted, " << stats.completed
            << " completed, " << stats.failed << " failed, " << stats.rejected
            << " rejected, " << stats.executed << " executed for "
            << distinct.size() << " distinct keys; hits memory "
            << stats.memory_hits << " store " << stats.store_hits
            << " coalesced " << stats.coalesced_hits << "\n";
  describe_timing(std::cerr, "latency_ms", latency_ms, "ms");
  describe_timing(std::cerr, "job step_ms", step_ms, "ms");
  describe_timing(std::cerr, "setup_s", setup_s, "s");

  if (!o.trace) {
    res.add("setup_s", median(setup_s), "s");
    res.add("step_ms", mean(step_ms), "ms");
    res.add("step_ms_p95", percentile(step_ms, 95.0), "ms");
    res.add("latency_p50_ms", median(burst_p50), "ms");
    res.add("latency_p95_ms", median(burst_p95), "ms");
    res.add("jobs_per_min", median(burst_rate), "1/min");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    double exec_max = 0.0, exec_sum = 0.0;
    for (const ShardStats& s : shards) {
      exec_max = std::max(exec_max, static_cast<double>(s.executed));
      exec_sum += static_cast<double>(s.executed);
    }
    const double mesh_lookups =
        static_cast<double>(stats.mesh_cache_hits + stats.mesh_cache_misses);
    res.add("frontend.submit_us_p50", median(submit_us), "us");
    res.add("frontend.submit_us_p95", percentile(submit_us, 95.0), "us");
    res.add("cache.memory_hits", static_cast<double>(stats.memory_hits),
            "count");
    res.add("cache.store_hits", static_cast<double>(stats.store_hits),
            "count");
    res.add("cache.coalesced_hits", static_cast<double>(stats.coalesced_hits),
            "count");
    res.add("cache.executed", static_cast<double>(stats.executed), "count");
    res.add("cache.hit_ratio", stats.cache_hit_rate(), "fraction");
    res.add("latency.memory_ms_p50", median(tier_ms[0]), "ms");
    res.add("latency.store_ms_p50", median(tier_ms[1]), "ms");
    res.add("latency.coalesced_ms_p50", median(tier_ms[2]), "ms");
    res.add("latency.miss_ms_p50", median(tier_ms[3]), "ms");
    res.add("queue.stolen", static_cast<double>(stats.stolen), "count");
    res.add("queue.spilled", static_cast<double>(stats.spilled), "count");
    res.add("queue.peak", static_cast<double>(stats.queue_peak), "count");
    res.add("shard.exec_imbalance",
            exec_sum > 0.0 ? exec_max * shards.size() / exec_sum : 0.0,
            "ratio");
    res.add("worker.execute_ms", median(execute_ms), "ms");
    res.add("worker.mesh_cache_hit_ratio",
            mesh_lookups > 0.0
                ? static_cast<double>(stats.mesh_cache_hits) / mesh_lookups
                : 0.0,
            "fraction");
    res.add("worker.retries", static_cast<double>(stats.retries), "count");
    res.add("store.put_ms", median(put_ms), "ms");
    res.add("store.load_ms", median(load_ms), "ms");
    res.add("store.file_count", fe->store().file_count(), "count");
    res.add("loadgen.lag_ms_p95", percentile(lag_ms, 95.0), "ms");
  }
  fe.reset();
  fs::remove_all(work);
  return res;
}

}  // namespace layerbench
