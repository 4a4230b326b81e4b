// Campaign service tests. Covers the bounded MPMC shard queue (ordering,
// backpressure, close, concurrent submitters — the TSan target), the
// content-addressed result store, capacity-model admission, and the
// acceptance campaign on a one-shard ShardedFrontend: >= 20 mixed-priority
// jobs with duplicates and an injected mid-job rank death, every
// seismogram bit-identical to a standalone run, duplicates served from
// cache, and the recovered job provably cheaper than a cold re-run under
// the same pricing model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "mesh/cartesian.hpp"
#include "runtime/exchanger.hpp"
#include "service/frontend.hpp"

namespace sfg::service {
namespace {

std::string temp_dir(const std::string& name) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "sfg_service_" + name +
                          "_" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);  // no stale state from earlier runs
  return dir;
}

// ---- queue (one shard: the plain campaign queue) ----

int pop_id(ShardQueueSet& q) { return q.pop_for(0)->entry.job_id; }

TEST(ShardQueueSet, PopsPriorityDescThenCostAscThenFifo) {
  ShardQueueSet q(1, 16);
  ASSERT_EQ(q.submit(0, {/*job_id=*/0, /*priority=*/0, /*cost=*/5.0}), 0);
  ASSERT_EQ(q.submit(0, {1, 2, 9.0}), 0);
  ASSERT_EQ(q.submit(0, {2, 2, 3.0}), 0);
  ASSERT_EQ(q.submit(0, {3, 0, 5.0}), 0);  // same as job 0: FIFO after it
  ASSERT_EQ(q.submit(0, {4, 1, 1.0}), 0);

  std::vector<int> order;
  for (int i = 0; i < 5; ++i) order.push_back(pop_id(q));
  EXPECT_EQ(order, (std::vector<int>{2, 1, 4, 0, 3}));
  EXPECT_EQ(q.peak(0), 5u);
}

TEST(ShardQueueSet, SubmitBlocksOnBackpressureUntilPop) {
  ShardQueueSet q(1, 1);
  ASSERT_EQ(q.submit(0, {0}), 0);
  std::atomic<bool> submitted{false};
  std::thread t([&] {
    EXPECT_EQ(q.submit(0, {1}), 0);  // blocks: the only queue is full
    submitted = true;
  });
  // The submitter cannot finish while the queue is full. (A sleep cannot
  // prove blocking, but TSan + the final assertions prove the handoff.)
  EXPECT_EQ(pop_id(q), 0);
  t.join();
  EXPECT_TRUE(submitted);
  EXPECT_EQ(pop_id(q), 1);
}

TEST(ShardQueueSet, CloseDrainsPendingThenEndsAndRefusesSubmits) {
  ShardQueueSet q(1, 8);
  ASSERT_EQ(q.submit(0, {0}), 0);
  ASSERT_EQ(q.submit(0, {1}), 0);
  q.close();
  EXPECT_EQ(q.submit(0, {2}), -1);
  EXPECT_TRUE(q.pop_for(0).has_value());
  EXPECT_TRUE(q.pop_for(0).has_value());
  EXPECT_FALSE(q.pop_for(0).has_value());  // drained: nullopt, no hang
  EXPECT_EQ(q.size(0), 0u);
}

TEST(ShardQueueSet, ConcurrentSubmittersAndWorkersLoseNothing) {
  // The TSan scenario: 4 submitters x 64 entries racing 4 workers through
  // a 16-deep queue. Every entry must come out exactly once.
  const int kSubmitters = 4, kWorkers = 4, kPerSubmitter = 64;
  ShardQueueSet q(1, 16);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSubmitters; ++s)
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        QueueEntry e;
        e.job_id = s * kPerSubmitter + i;
        e.priority = i % 3;
        e.cost_core_seconds = static_cast<double>(i % 7);
        ASSERT_EQ(q.submit(0, e), 0);
      }
    });
  std::mutex popped_mutex;
  std::set<int> popped;
  for (int w = 0; w < kWorkers; ++w)
    threads.emplace_back([&] {
      while (auto p = q.pop_for(0)) {
        std::lock_guard<std::mutex> lock(popped_mutex);
        EXPECT_TRUE(popped.insert(p->entry.job_id).second)
            << "entry " << p->entry.job_id << " popped twice";
      }
    });
  for (int s = 0; s < kSubmitters; ++s) threads[static_cast<size_t>(s)].join();
  q.close();
  for (std::size_t t = kSubmitters; t < threads.size(); ++t)
    threads[t].join();
  EXPECT_EQ(popped.size(),
            static_cast<std::size_t>(kSubmitters * kPerSubmitter));
}

// ---- content key ----

JobRequest small_request() {
  JobRequest r;
  r.nex = 4;
  r.nranks = 1;
  r.extent_m = 1000.0;
  r.source.x = 320.0;
  r.source.y = 480.0;
  r.source.z = 510.0;
  r.source.force = {1e9, 5e8, 0.0};
  r.source.f0 = 14.0;
  r.source.t0 = 0.09;
  r.stations = {{700.0, 510.0, 480.0}};
  r.dt = 1.5e-3;
  r.nsteps = 40;
  return r;
}

TEST(RequestKey, HashesPhysicsNotServiceKnobs) {
  const JobRequest a = small_request();
  JobRequest b = a;
  b.priority = 7;
  b.checkpoint_interval_steps = 10;
  b.fault.kill_rank = 1;
  b.fault.kill_step = 20;
  EXPECT_EQ(request_key(a), request_key(b))
      << "service knobs must not change the content address";

  JobRequest c = a;
  c.dt = 1.6e-3;
  EXPECT_NE(request_key(a), request_key(c));
  JobRequest d = a;
  d.stations.push_back({100.0, 100.0, 900.0});
  EXPECT_NE(request_key(a), request_key(d));
  JobRequest e = a;
  e.model = BoxModel::FluidLayer;
  EXPECT_NE(request_key(a), request_key(e));
}

// ---- result store ----

JobResult fake_result() {
  JobResult res;
  Seismogram s;
  for (int i = 0; i < 32; ++i) {
    s.time.push_back(1.5e-3 * i);
    s.displ.push_back({1e-9 * i, -2e-9 * i, 0.5e-9 * i});
  }
  res.seismograms = {s, s};
  return res;
}

void expect_results_equal(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.seismograms.size(), b.seismograms.size());
  for (std::size_t s = 0; s < a.seismograms.size(); ++s) {
    ASSERT_EQ(a.seismograms[s].time, b.seismograms[s].time);
    ASSERT_EQ(a.seismograms[s].displ, b.seismograms[s].displ);
  }
}

TEST(ResultStore, RoundTripsAndPersistsAcrossReopen) {
  const std::string dir = temp_dir("store");
  const RequestKey key = request_key(small_request());
  const JobResult res = fake_result();
  {
    ResultStore store(dir);
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.load(key).has_value());
    store.store(key, res);
    EXPECT_TRUE(store.contains(key));
    expect_results_equal(*store.load(key), res);
    EXPECT_EQ(store.size(), 1u);
  }
  // A fresh store over the same directory re-indexes the file: this is the
  // cross-campaign cache.
  ResultStore reopened(dir);
  ASSERT_TRUE(reopened.contains(key));
  expect_results_equal(*reopened.load(key), res);
}

TEST(ResultStore, CorruptedEntryIsRejectedNotServed) {
  const std::string dir = temp_dir("store_corrupt");
  const RequestKey key = request_key(small_request());
  ResultStore store(dir);
  store.store(key, fake_result());
  {
    std::fstream f(store.path_for(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(150);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(150);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }
  EXPECT_THROW(store.load(key), CheckError);
}

// ---- admission ----

TEST(Scheduler, RejectsMalformedRequests) {
  Scheduler sched(AdmissionPolicy{}, CostModel{});
  RejectionReason why;
  JobRequest r = small_request();
  r.nranks = 3;  // 4 % 3 != 0
  EXPECT_FALSE(sched.admit(r, &why).has_value());
  EXPECT_FALSE(why.message.empty());

  r = small_request();
  r.stations.clear();
  EXPECT_FALSE(sched.admit(r, &why).has_value());

  r = small_request();
  r.nsteps = 0;
  EXPECT_FALSE(sched.admit(r, &why).has_value());

  r = small_request();
  r.fault.kill_rank = 0;
  r.fault.kill_step = 5;  // fault injection needs nranks >= 2
  EXPECT_FALSE(sched.admit(r, &why).has_value());

  r = small_request();
  r.fault.kill_rank = 5;
  r.fault.kill_step = 5;
  r.nranks = 2;
  EXPECT_FALSE(sched.admit(r, &why).has_value());  // kill_rank >= nranks

  // Non-finite numbers: an infinite dt would march to a NaN seismogram
  // and poison the content-addressed cache; NaN passes every `<= 0` test.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::function<void(JobRequest&)>> non_finite = {
      [&](JobRequest& q) { q.dt = inf; },
      [&](JobRequest& q) { q.dt = nan; },
      [&](JobRequest& q) { q.extent_m = inf; },
      [&](JobRequest& q) { q.extent_m = nan; },
      [&](JobRequest& q) { q.source.x = nan; },
      [&](JobRequest& q) { q.source.z = -inf; },
      [&](JobRequest& q) { q.source.force[1] = inf; },
      [&](JobRequest& q) { q.source.f0 = nan; },
      [&](JobRequest& q) { q.source.t0 = inf; },
      [&](JobRequest& q) { q.stations.push_back({100.0, nan, 900.0}); },
      [&](JobRequest& q) { q.stations[0].z = inf; },
  };
  for (std::size_t c = 0; c < non_finite.size(); ++c) {
    r = small_request();
    non_finite[c](r);
    why.message.clear();
    EXPECT_FALSE(sched.admit(r, &why).has_value()) << "case " << c;
    EXPECT_NE(why.message.find("finite"), std::string::npos)
        << "case " << c << ": " << why.message;
  }
}

TEST(Scheduler, PricesWithCapacityModelAndEnforcesBudgets) {
  const JobRequest r = small_request();
  {
    Scheduler open(AdmissionPolicy{}, CostModel{});
    RejectionReason why;
    const auto cost = open.admit(r, &why);
    ASSERT_TRUE(cost.has_value());
    EXPECT_GT(*cost, 0.0);
    // The price is the capacity model, not a constant: doubling the steps
    // doubles it, and 2 ranks of the same box cost the same flops.
    JobRequest twice = r;
    twice.nsteps = 2 * r.nsteps;
    EXPECT_NEAR(*open.admit(twice, &why), 2.0 * *cost, 1e-9 * *cost);
    EXPECT_GT(open.committed_core_seconds(), 0.0);
  }
  {
    AdmissionPolicy tight;
    tight.max_job_core_seconds = 1e-12;  // nothing fits
    Scheduler sched(tight, CostModel{});
    RejectionReason why;
    EXPECT_FALSE(sched.admit(r, &why).has_value());
    EXPECT_NE(why.message.find("core-seconds"), std::string::npos)
        << why.message;
  }
  {
    AdmissionPolicy budget;
    Scheduler probe(AdmissionPolicy{}, CostModel{});
    RejectionReason why;
    const double one = *probe.admit(r, &why);
    budget.max_campaign_core_seconds = 1.5 * one;  // room for one job only
    Scheduler sched(budget, CostModel{});
    EXPECT_TRUE(sched.admit(r, &why).has_value());
    EXPECT_FALSE(sched.admit(r, &why).has_value());  // budget exhausted
  }
}

// ---- standalone references for the acceptance campaign ----

MaterialSample rock() {
  MaterialSample s;
  s.rho = 2500.0;
  s.vp = 3000.0;
  s.vs = 1800.0;
  s.q_mu = 80.0;
  return s;
}

MaterialSample water() {
  MaterialSample s;
  s.rho = 1000.0;
  s.vp = 1500.0;
  s.vs = 0.0;
  s.q_mu = 0.0;
  return s;
}

MaterialSample sample_for(const JobRequest& r, double z) {
  if (r.model == BoxModel::FluidLayer && z >= 0.25 * r.extent_m &&
      z < 0.5 * r.extent_m)
    return water();
  return rock();
}

PointSource source_for(const JobRequest& r) {
  PointSource src;
  src.x = r.source.x;
  src.y = r.source.y;
  src.z = r.source.z;
  src.force = r.source.force;
  src.stf = ricker_wavelet(r.source.f0, r.source.t0);
  return src;
}

/// Reference execution of `r` with plain solver calls (no service, no
/// faults, no checkpoints): what the campaign's results must equal bit for
/// bit.
JobResult standalone_run(const JobRequest& r) {
  GllBasis basis(4);
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = r.nex;
  spec.lx = spec.ly = spec.lz = r.extent_m;
  JobResult out;
  out.seismograms.resize(r.stations.size());
  SimulationConfig cfg;
  cfg.dt = r.dt;

  if (r.nranks == 1) {
    HexMesh mesh = build_cartesian_box(spec, basis);
    MaterialFields mat = assign_materials(
        mesh,
        [&](double, double, double z) { return sample_for(r, z); });
    Simulation sim(mesh, basis, mat, cfg);
    sim.add_source(source_for(r));
    std::vector<int> ids;
    for (const StationSpec& st : r.stations)
      ids.push_back(sim.add_receiver(st.x, st.y, st.z));
    sim.run(r.nsteps);
    for (std::size_t s = 0; s < ids.size(); ++s)
      out.seismograms[s] = sim.seismogram(ids[s]);
    return out;
  }

  smpi::run_ranks(r.nranks, [&](smpi::Communicator& comm) {
    CartesianSlice slice = build_cartesian_slice(
        spec, basis, r.nranks, 1, 1, comm.rank(), 0, 0);
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
      cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    MaterialFields mat = assign_materials(
        slice.mesh,
        [&](double, double, double z) { return sample_for(r, z); });
    Simulation sim(slice.mesh, basis, mat, cfg, &comm, &ex);
    sim.add_source_global(source_for(r));
    std::vector<std::pair<std::size_t, int>> owned;
    for (std::size_t s = 0; s < r.stations.size(); ++s) {
      const int id = sim.add_receiver_global(
          r.stations[s].x, r.stations[s].y, r.stations[s].z);
      if (id >= 0) owned.emplace_back(s, id);
    }
    sim.run(r.nsteps);
    for (const auto& [s, id] : owned)
      out.seismograms[s] = sim.seismogram(id);
  });
  return out;
}

// ---- the acceptance campaign ----

TEST(Campaign, MixedCampaignWithFaultsDuplicatesAndCache) {
  FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 3;
  cfg.shard_queue_capacity = 8;  // < campaign size: exercises backpressure
  cfg.max_retries = 2;
  cfg.work_dir = temp_dir("campaign");

  // 10 distinct physics shapes: serial and 2-rank, both models, varying
  // event depth and step counts.
  std::vector<JobRequest> shapes;
  for (int i = 0; i < 10; ++i) {
    JobRequest r = small_request();
    r.nranks = (i % 2 == 0) ? 1 : 2;
    r.model = (i % 3 == 0) ? BoxModel::FluidLayer : BoxModel::UniformRock;
    r.source.z = 510.0 + 20.0 * i;
    r.nsteps = 40 + 2 * (i % 4);
    r.stations = {{700.0, 510.0, 480.0}, {260.0, 770.0, 700.0}};
    shapes.push_back(r);
  }
  // The fault scenario: shape 9 (2-rank) dies on rank 1 at step 25 with a
  // 10-step checkpoint cadence -> recovery resumes from step 20.
  JobRequest faulted = shapes[9];
  faulted.nsteps = 50;
  faulted.checkpoint_interval_steps = 10;
  faulted.fault.kill_rank = 1;
  faulted.fault.kill_step = 25;
  faulted.priority = 3;

  ShardedFrontend service(cfg);
  std::vector<int> ids;
  std::vector<JobRequest> submitted;
  // 10 primaries + 8 duplicates (same physics, different priorities) + the
  // faulted job + 1 rejected = 20 submissions, from 2 submitter threads.
  std::vector<JobRequest> batch_a, batch_b;
  for (int i = 0; i < 10; ++i) {
    JobRequest r = shapes[static_cast<std::size_t>(i)];
    r.priority = i % 3;
    (i % 2 == 0 ? batch_a : batch_b).push_back(r);
  }
  for (int i = 0; i < 8; ++i) {
    JobRequest dup = shapes[static_cast<std::size_t>(i)];
    dup.priority = 2 - i % 3;  // different knobs, same physics
    dup.checkpoint_interval_steps = (i % 2 == 0) ? 0 : 25;
    (i % 2 == 0 ? batch_b : batch_a).push_back(dup);
  }
  batch_a.push_back(faulted);
  JobRequest malformed = small_request();
  malformed.stations.clear();
  batch_b.push_back(malformed);

  std::mutex ids_mutex;
  auto submit_batch = [&](const std::vector<JobRequest>& batch) {
    for (const JobRequest& r : batch) {
      const int id = service.submit(r);
      std::lock_guard<std::mutex> lock(ids_mutex);
      ids.push_back(id);
      submitted.push_back(r);
    }
  };
  std::thread ta(submit_batch, batch_a), tb(submit_batch, batch_b);
  ta.join();
  tb.join();
  ASSERT_EQ(ids.size(), 20u);
  service.wait_all();

  // Every non-rejected job reached Done; the malformed one was rejected.
  int done = 0, rejected = 0, computed = 0, cache_hits = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const FrontendJob rec = service.job(ids[i]);
    if (rec.state == JobState::Rejected) {
      ++rejected;
      EXPECT_TRUE(rec.request.stations.empty());
      EXPECT_NE(rec.error.find("station"), std::string::npos) << rec.error;
      continue;
    }
    ASSERT_EQ(rec.state, JobState::Done)
        << "job " << rec.id << ": " << rec.error;
    ++done;
    rec.cache_hit ? ++cache_hits : ++computed;
  }
  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(done, 19);
  EXPECT_EQ(computed, 11);   // 10 shapes + the faulted variant's... (same
                             // physics as shape 9 with nsteps=50: distinct)
  EXPECT_EQ(cache_hits, 8);  // every duplicate served without recompute

  // Bit-identity of EVERY seismogram against a standalone solver run of
  // the same request — including the faulted job, whose recovery must not
  // leave a trace in the physics.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const FrontendJob rec = service.job(ids[i]);
    if (rec.state != JobState::Done) continue;
    const auto got = service.result(ids[i]);
    ASSERT_TRUE(got.has_value()) << "job " << rec.id;
    const JobResult expected = standalone_run(submitted[i]);
    ASSERT_EQ(got->seismograms.size(), expected.seismograms.size());
    for (std::size_t s = 0; s < expected.seismograms.size(); ++s) {
      ASSERT_EQ(got->seismograms[s].time, expected.seismograms[s].time)
          << "job " << rec.id << " station " << s;
      ASSERT_EQ(got->seismograms[s].displ, expected.seismograms[s].displ)
          << "job " << rec.id << " station " << s
          << ": campaign result is not bit-identical to a standalone run";
    }
  }

  // The killed job recovered from the periodic checkpoint...
  int faulted_id = -1;
  for (std::size_t i = 0; i < submitted.size(); ++i)
    if (!submitted[i].fault.empty()) faulted_id = ids[i];
  ASSERT_GE(faulted_id, 0);
  const FrontendJob frec = service.job(faulted_id);
  ASSERT_EQ(frec.state, JobState::Done) << frec.error;
  EXPECT_EQ(frec.attempts, 2);
  EXPECT_EQ(frec.resumed_from_step, 20)
      << "retry must resume from the last consistent checkpoint set";
  // ...and executed fewer steps than a cold re-run would have: 25 (dead
  // attempt) + 30 (resume 20->50) = 55 < 50 + 25 = 75.
  EXPECT_EQ(frec.steps_executed, 55);

  const FrontendStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 20u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 19u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.cache_hits, 8u);
  EXPECT_EQ(stats.executed, 11u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_GT(stats.mesh_cache_hits, 0u) << "duplicate shapes share meshes";
  // Replay pricing: the campaign with retry-from-checkpoint costs less
  // than the same campaign with cold re-runs after the same fault.
  EXPECT_GT(stats.priced_core_seconds, 0.0);
  EXPECT_LT(stats.priced_core_seconds, stats.cold_restart_core_seconds)
      << "recovery from checkpoint must beat a cold re-run";
  EXPECT_GT(stats.retry_overhead_core_seconds, 0.0);

  // Metrics registry + JSON report.
  const metrics::Registry& reg = service.registry();
  EXPECT_EQ(reg.counters().at("frontend.jobs_submitted").value(), 20u);
  EXPECT_EQ(reg.counters().at("frontend.cache_hits").value(), 8u);
  std::ostringstream report;
  service.write_json_report(report);
  const std::string json = report.str();
  EXPECT_NE(json.find("\"jobs_submitted\": 20"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"retry_overhead_core_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"rejected\""), std::string::npos);

  service.shutdown();  // idempotent with the destructor
}

TEST(Campaign, SecondCampaignServesEverythingFromDiskCache) {
  FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 2;
  cfg.work_dir = temp_dir("campaign_reuse");
  const JobRequest r = small_request();
  {
    ShardedFrontend first(cfg);
    const int id = first.submit(r);
    first.wait_all();
    ASSERT_EQ(first.job(id).state, JobState::Done);
    EXPECT_FALSE(first.job(id).cache_hit);
  }
  ShardedFrontend second(cfg);
  const int id = second.submit(r);
  // A store hit is resolved synchronously at submit time.
  const FrontendJob rec = second.job(id);
  EXPECT_EQ(rec.state, JobState::Done);
  EXPECT_TRUE(rec.cache_hit);
  EXPECT_EQ(rec.attempts, 0);
  second.wait_all();
  expect_results_equal(*second.result(id), standalone_run(r));
}

TEST(Campaign, RetryNeverResumesAnotherRequestsCheckpoints) {
  // Job ids restart at 0 in every front-end opened over one work dir, so
  // in the reopened front-end request Y runs in the scratch directory
  // where request X failed for good and left its step-20 checkpoints. Y
  // has X's mesh, dt, station count and source rank, so those checkpoints
  // would restore cleanly — Y's retry must start cold anyway. Request W
  // is served from the store on reopen and keeps the job ids aligned.
  const std::string work_dir = temp_dir("campaign_scratch_reuse");
  FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 1;
  cfg.work_dir = work_dir;
  const JobRequest w = small_request();
  JobRequest x = small_request();
  x.nranks = 2;
  x.nsteps = 50;
  x.checkpoint_interval_steps = 10;
  x.fault.kill_rank = 1;
  x.fault.kill_step = 25;
  {
    cfg.max_retries = 0;
    ShardedFrontend first(cfg);
    ASSERT_EQ(first.submit(w), 0);
    first.wait_all();
    const int id = first.submit(x);
    first.wait_all();
    ASSERT_EQ(first.job(id).state, JobState::Failed);
  }
  JobRequest y = x;
  y.source.z = 610.0;     // new content key, same rank as X's source
  y.fault.kill_step = 5;  // dies before its own first checkpoint
  cfg.max_retries = 1;
  ShardedFrontend second(cfg);
  ASSERT_TRUE(second.job(second.submit(w)).cache_hit);
  const int id = second.submit(y);
  second.wait_all();
  const FrontendJob rec = second.job(id);
  ASSERT_EQ(rec.state, JobState::Done) << rec.error;
  EXPECT_EQ(rec.attempts, 2);
  EXPECT_EQ(rec.resumed_from_step, -1);
  JobRequest fault_free = y;
  fault_free.fault = {};
  expect_results_equal(*second.result(id), standalone_run(fault_free));
}

TEST(Campaign, ExhaustedRetriesFailTheJobAndItsDuplicates) {
  FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 1;
  cfg.max_retries = 0;  // the injected death cannot be retried
  cfg.work_dir = temp_dir("campaign_fail");
  ShardedFrontend service(cfg);
  JobRequest doomed = small_request();
  doomed.nranks = 2;
  doomed.nsteps = 40;
  doomed.fault.kill_rank = 1;
  doomed.fault.kill_step = 10;
  const int id = service.submit(doomed);
  const int dup = service.submit(doomed);
  service.wait_all();
  const FrontendJob rec = service.job(id);
  EXPECT_EQ(rec.state, JobState::Failed);
  EXPECT_NE(rec.error.find("attempt"), std::string::npos) << rec.error;
  const FrontendJob drec = service.job(dup);
  EXPECT_EQ(drec.state, JobState::Failed);
  EXPECT_FALSE(service.result(id).has_value());
  EXPECT_EQ(service.stats().failed, 2u);
}

}  // namespace
}  // namespace sfg::service
