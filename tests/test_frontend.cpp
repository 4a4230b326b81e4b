// Sharded front-end tests (ISSUE 9): the consistent-hash ring property
// harness (with the `unsafe_modulo_ring` injection tooth proving the
// harness catches a naive modulo router), the JSON line protocol, global
// coalescing across shards, spill on saturation, and the headline
// fault-injection scenario — kill one shard's workers mid-campaign and
// the survivors steal its backlog, completing every job with results
// bit-identical to a standalone execution.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/frontend.hpp"
#include "service/loadgen.hpp"

namespace sfg::service {
namespace {

std::string temp_dir(const std::string& name) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "sfg_frontend_" + name +
                          "_" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

/// A cheap valid request; vary `tag` to vary the content key.
JobRequest small_request(int tag = 0, int nsteps = 12) {
  JobRequest r = loadgen_base_request();
  r.nsteps = nsteps;
  r.stations = {{1000.0, 1000.0, 3900.0}};
  r.source.x = 1500.0 + 10.0 * tag;  // content-key axis
  return r;
}

void expect_bit_identical(const JobResult& a, const JobResult& b) {
  ASSERT_EQ(a.seismograms.size(), b.seismograms.size());
  for (std::size_t s = 0; s < a.seismograms.size(); ++s) {
    const Seismogram& sa = a.seismograms[s];
    const Seismogram& sb = b.seismograms[s];
    ASSERT_EQ(sa.time, sb.time) << "station " << s;
    ASSERT_EQ(sa.displ.size(), sb.displ.size()) << "station " << s;
    for (std::size_t i = 0; i < sa.displ.size(); ++i)
      for (int c = 0; c < 3; ++c)
        ASSERT_EQ(sa.displ[i][static_cast<std::size_t>(c)],
                  sb.displ[i][static_cast<std::size_t>(c)])
            << "station " << s << " sample " << i << " comp " << c;
  }
}

// ---- ring properties (satellite 1) ----

constexpr int kPropertySeeds = 50;
constexpr int kKeysPerSeed = 400;

std::vector<std::uint64_t> seeded_keys(int seed, int n = kKeysPerSeed) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 1000003u + 17u);
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  for (auto& k : keys) k = rng();
  return keys;
}

TEST(ShardRingProperty, EveryKeyMapsToExactlyOneStableShard) {
  for (int seed = 1; seed <= kPropertySeeds; ++seed) {
    for (int nshards : {1, 2, 3, 5, 8}) {
      const ShardRing ring(nshards);
      const ShardRing rebuilt(nshards);  // a different process, in effect
      for (std::uint64_t key : seeded_keys(seed, 80)) {
        const int shard = ring.shard_for(key);
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, nshards);
        // Identical keys co-locate: same ring, and any rebuild of it.
        ASSERT_EQ(ring.shard_for(key), shard);
        ASSERT_EQ(rebuilt.shard_for(key), shard);
      }
    }
  }
}

TEST(ShardRingProperty, KeysSpreadOverEveryShard) {
  const ShardRing ring(8);
  std::vector<int> load(8, 0);
  for (std::uint64_t key : seeded_keys(1, 4000))
    ++load[static_cast<std::size_t>(ring.shard_for(key))];
  const double mean = 4000.0 / 8.0;
  for (int s = 0; s < 8; ++s) {
    EXPECT_GT(load[static_cast<std::size_t>(s)], 0) << "shard " << s;
    // 64 vnodes/shard keeps the imbalance modest; this bound is loose.
    EXPECT_LT(load[static_cast<std::size_t>(s)], mean * 1.6)
        << "shard " << s;
  }
}

TEST(ShardRingProperty, AddingOneShardRemapsOnlyOntoTheNewShard) {
  for (int seed = 1; seed <= kPropertySeeds; ++seed) {
    const int old_n = 4;
    const ShardRing before(old_n);
    const ShardRing after(old_n + 1);
    int moved = 0;
    for (std::uint64_t key : seeded_keys(seed)) {
      const int was = before.shard_for(key);
      const int now = after.shard_for(key);
      if (was == now) continue;
      ++moved;
      // Consistent hashing's defining churn property: growing the fleet
      // only moves keys TO the new shard — survivors keep their caches.
      ASSERT_EQ(now, old_n) << "seed " << seed << " key " << key;
    }
    // Expected churn ~ keys/(n+1) = 80; allow generous sampling slack
    // but stay far below the ~4/5 a modulo router would remap.
    EXPECT_GT(moved, 0) << "seed " << seed;
    EXPECT_LE(moved, 2 * kKeysPerSeed / (old_n + 1)) << "seed " << seed;
  }
}

TEST(ShardRingProperty, RemovingOneShardOnlyRehomesItsOwnKeys) {
  for (int seed = 1; seed <= kPropertySeeds; ++seed) {
    const ShardRing big(5);
    const ShardRing small(4);
    for (std::uint64_t key : seeded_keys(seed, 100)) {
      const int was = big.shard_for(key);
      const int now = small.shard_for(key);
      // Keys owned by surviving shards must not move at all.
      if (was != 4) ASSERT_EQ(now, was) << "seed " << seed;
    }
  }
}

/// The injection tooth: a naive `key % nshards` router MUST fail the
/// churn property — this is the proof the harness has teeth.
TEST(ShardRingProperty, ModuloToothViolatesTheChurnBound) {
  ShardRingOptions tooth;
  tooth.unsafe_modulo_ring = true;
  int seeds_caught = 0;
  for (int seed = 1; seed <= kPropertySeeds; ++seed) {
    const ShardRing before(4, tooth);
    const ShardRing after(5, tooth);
    int moved = 0;
    int moved_to_old_shard = 0;
    for (std::uint64_t key : seeded_keys(seed)) {
      const int was = before.shard_for(key);
      const int now = after.shard_for(key);
      if (was == now) continue;
      ++moved;
      if (now != 4) ++moved_to_old_shard;
    }
    // Either failure mode convicts modulo: churn over the bound, or keys
    // remapped between SURVIVING shards (cache-destroying shuffles).
    if (moved > 2 * kKeysPerSeed / 5 && moved_to_old_shard > 0)
      ++seeds_caught;
  }
  EXPECT_EQ(seeds_caught, kPropertySeeds);

  // Sanity: the tooth still routes deterministically in range.
  const ShardRing ring(3, tooth);
  for (std::uint64_t key : seeded_keys(1, 50)) {
    ASSERT_EQ(ring.shard_for(key), ring.shard_for(key));
    ASSERT_GE(ring.shard_for(key), 0);
    ASSERT_LT(ring.shard_for(key), 3);
  }
}

// ---- line protocol ----

TEST(Protocol, RoundTripPreservesEveryFieldAndTheContentKey) {
  JobRequest r;
  r.nex = 8;
  r.nranks = 2;
  r.model = BoxModel::FluidLayer;
  r.extent_m = 2500.0;
  r.source = {123.5, -42.25, 900.0, {1.0, -2.0, 3.5e9}, 11.5, 0.075};
  r.stations = {{1.0, 2.0, 3.0}, {4.5, 5.5, 6.5}, {7.0, 8.0, 9.0}};
  r.dt = 3.7e-4;
  r.nsteps = 123;
  r.priority = 2;
  r.checkpoint_interval_steps = 25;
  r.fault = {1, 60};

  JobRequest parsed;
  std::string error;
  ASSERT_TRUE(parse_request_json(request_to_json(r), &parsed, &error))
      << error;
  EXPECT_EQ(request_key(parsed), request_key(r));
  EXPECT_EQ(parsed.model, BoxModel::FluidLayer);
  EXPECT_EQ(parsed.priority, 2);
  EXPECT_EQ(parsed.checkpoint_interval_steps, 25);
  EXPECT_EQ(parsed.fault.kill_rank, 1);
  EXPECT_EQ(parsed.fault.kill_step, 60);
  ASSERT_EQ(parsed.stations.size(), 3u);
  EXPECT_EQ(parsed.stations[1].y, 5.5);
  EXPECT_EQ(parsed.source.force[2], 3.5e9);
  EXPECT_EQ(parsed.dt, 3.7e-4);
}

TEST(Protocol, RejectsMalformedLines) {
  JobRequest r;
  std::string error;
  EXPECT_FALSE(parse_request_json("", &r, &error));
  EXPECT_FALSE(parse_request_json("not json", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"nex\": }", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"nex\": 4", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"nex\": 4} trailing", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"bogus_field\": 1}", &r, &error));
  EXPECT_NE(error.find("bogus_field"), std::string::npos);
  EXPECT_FALSE(
      parse_request_json("{\"stations\": [1, 2]}", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"stations\": 3}", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"model\": \"granite\"}", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"model\": 0.5}", &r, &error));
  EXPECT_FALSE(parse_request_json("{\"nex\": \"four\"}", &r, &error));
  // Integer fields: truncating 4.7 to 4 would silently change the content
  // key, and 1e300 has no int value at all.
  for (const char* line : {"{\"nex\": 4.7}", "{\"nex\": 1e300}",
                           "{\"nsteps\": -1e300}", "{\"nranks\": nan}"}) {
    error.clear();
    EXPECT_FALSE(parse_request_json(line, &r, &error)) << line;
    EXPECT_NE(error.find("has the wrong type"), std::string::npos)
        << line << ": " << error;
  }
}

TEST(Protocol, NonFiniteRequestIsRejectedAndNeverCached) {
  FrontendConfig config;
  config.num_shards = 1;
  config.work_dir = temp_dir("nonfinite");
  ShardedFrontend frontend(config);
  for (const char* line :
       {R"({"nex":4,"dt":inf,"nsteps":5,"stations":[700,510,480]})",
        R"({"nex":4,"dt":nan,"nsteps":5,"stations":[700,510,480]})",
        R"({"nex":4,"extent_m":nan,"nsteps":5,"stations":[700,510,480]})",
        R"({"nex":4,"nsteps":5,"stations":[700,nan,480]})"}) {
    const std::string resp = frontend.handle_line(line);
    EXPECT_NE(resp.find("\"state\": \"rejected\""), std::string::npos)
        << line << " -> " << resp;
  }
  frontend.wait_all();
  EXPECT_EQ(frontend.stats().rejected, 4u);
  EXPECT_EQ(frontend.store().size(), 0u) << "nothing may reach the cache";
  frontend.shutdown();
}

TEST(Protocol, HandleLineServesRequestsAndControlCommands) {
  FrontendConfig config;
  config.num_shards = 2;
  config.work_dir = temp_dir("protocol");
  ShardedFrontend frontend(config);

  const std::string line = request_to_json(small_request(1));
  const std::string resp = frontend.handle_line(line);
  EXPECT_NE(resp.find("\"id\": 0"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"key\": \""), std::string::npos) << resp;
  EXPECT_EQ(resp.find("\"error\""), std::string::npos) << resp;

  EXPECT_NE(frontend.handle_line("{\"cmd\": \"wait\"}").find("\"ok\""),
            std::string::npos);
  const std::string stats = frontend.handle_line("{\"cmd\": \"stats\"}");
  EXPECT_NE(stats.find("\"submitted\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"completed\": 1"), std::string::npos) << stats;

  const std::string job =
      frontend.handle_line("{\"cmd\": \"job\", \"id\": 0}");
  EXPECT_NE(job.find("\"state\": \"done\""), std::string::npos) << job;

  EXPECT_NE(frontend.handle_line("{\"cmd\": \"job\", \"id\": 99}")
                .find("error"),
            std::string::npos);
  EXPECT_NE(frontend.handle_line("{\"cmd\": \"job\", \"id\": 0.5}")
                .find("error"),
            std::string::npos);
  EXPECT_NE(frontend.handle_line("{\"cmd\": \"selfdestruct\"}")
                .find("error"),
            std::string::npos);
  EXPECT_NE(frontend.handle_line("garbage").find("error"),
            std::string::npos);
  frontend.shutdown();
}

// ---- routing, caching, coalescing ----

TEST(ShardedFrontend, DuplicatesCoalesceGloballyAndHitTheMemoryTier) {
  FrontendConfig config;
  config.num_shards = 3;
  config.workers_per_shard = 2;
  config.work_dir = temp_dir("coalesce");
  ShardedFrontend frontend(config);

  const JobRequest request = small_request(7);
  const int a = frontend.submit(request);
  const int b = frontend.submit(request);
  const int c = frontend.submit(request);
  frontend.wait_all();

  // All three share the home shard (the co-location the coalescer needs).
  EXPECT_EQ(frontend.job(a).home_shard, frontend.job(b).home_shard);
  EXPECT_EQ(frontend.job(b).home_shard, frontend.job(c).home_shard);
  EXPECT_EQ(frontend.job(a).state, JobState::Done);
  EXPECT_EQ(frontend.job(b).state, JobState::Done);
  EXPECT_EQ(frontend.job(c).state, JobState::Done);

  // Resubmitting after completion hits the memory tier of the home LRU.
  const int d = frontend.submit(request);
  const FrontendJob rec = frontend.job(d);
  EXPECT_EQ(rec.state, JobState::Done);
  EXPECT_TRUE(rec.cache_hit);
  EXPECT_EQ(rec.tier, CacheTier::Memory);

  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.executed, 1u);  // one computation for four submissions
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.coalesced_hits + stats.memory_hits + stats.store_hits,
            3u);
  frontend.shutdown();
}

TEST(ShardedFrontend, ReopenedWorkDirServesPriorResultsFromTheStoreTier) {
  const std::string dir = temp_dir("reopen");
  const JobRequest request = small_request(3);
  {
    FrontendConfig config;
    config.num_shards = 2;
    config.work_dir = dir;
    ShardedFrontend frontend(config);
    frontend.submit(request);
    frontend.wait_all();
    frontend.shutdown();
  }
  FrontendConfig config;
  config.num_shards = 2;
  config.work_dir = dir;
  ShardedFrontend frontend(config);
  const int id = frontend.submit(request);
  const FrontendJob rec = frontend.job(id);
  EXPECT_EQ(rec.state, JobState::Done);
  EXPECT_TRUE(rec.cache_hit);
  EXPECT_EQ(rec.tier, CacheTier::Store);  // memory tier starts cold
  EXPECT_EQ(frontend.stats().executed, 0u);
  frontend.shutdown();
}

TEST(ShardedFrontend, RejectedRequestsGetATerminalRecord) {
  FrontendConfig config;
  config.num_shards = 2;
  config.work_dir = temp_dir("reject");
  ShardedFrontend frontend(config);
  JobRequest bad = small_request(0);
  bad.nsteps = 0;
  const int id = frontend.submit(bad);
  const FrontendJob rec = frontend.job(id);
  EXPECT_EQ(rec.state, JobState::Rejected);
  EXPECT_FALSE(rec.error.empty());
  EXPECT_EQ(frontend.stats().rejected, 1u);
  frontend.wait_all();  // must not hang on a rejected job
  frontend.shutdown();
}

TEST(ShardedFrontend, SubmitToHaltedShardSpillsAndStillCompletes) {
  FrontendConfig config;
  config.num_shards = 2;
  config.workers_per_shard = 1;
  config.work_dir = temp_dir("spill");
  ShardedFrontend frontend(config);

  // Find a request homed on shard 0, then kill shard 0 BEFORE submitting:
  // the entry must spill to shard 1 and execute there.
  int tag = 0;
  while (frontend.ring().shard_for(request_key(small_request(tag))) != 0)
    ++tag;
  frontend.halt_shard(0);
  const int id = frontend.submit(small_request(tag));
  frontend.wait_all();

  const FrontendJob rec = frontend.job(id);
  EXPECT_EQ(rec.state, JobState::Done);
  EXPECT_EQ(rec.home_shard, 0);
  EXPECT_EQ(rec.queued_shard, 1);
  EXPECT_EQ(rec.executed_shard, 1);
  EXPECT_GE(frontend.stats().spilled, 1u);
  frontend.shutdown();
}

TEST(ShardedFrontend, TinyQueuesBackpressureWithoutDeadlockOrLoss) {
  FrontendConfig config;
  config.num_shards = 2;
  config.workers_per_shard = 1;
  config.shard_queue_capacity = 1;  // brutal: constant saturation
  config.work_dir = temp_dir("backpressure");
  ShardedFrontend frontend(config);
  std::vector<int> ids;
  for (int tag = 0; tag < 12; ++tag)
    ids.push_back(frontend.submit(small_request(tag, /*nsteps=*/8)));
  frontend.wait_all();
  for (int id : ids) EXPECT_EQ(frontend.job(id).state, JobState::Done);
  EXPECT_EQ(frontend.stats().executed, 12u);
  frontend.shutdown();
}

/// The value of `f`, waiting at most `limit`. A wait that expires ends the
/// whole test process with a failure: the stuck call cannot be joined,
/// and a std::async future would block forever in its destructor.
template <class T>
T bounded_get(std::future<T>& f, const char* what,
              std::chrono::seconds limit = std::chrono::seconds(60)) {
  if (f.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: %s did not return within %lld s\n", what,
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(EXIT_FAILURE);
  }
  return f.get();
}

TEST(ShardedFrontend, HaltingEveryShardFailsQueuedAndLaterJobs) {
  FrontendConfig config;
  config.num_shards = 2;
  config.workers_per_shard = 1;
  config.work_dir = temp_dir("halt_all");
  ShardedFrontend frontend(config);
  std::vector<int> ids;
  for (int tag = 0; tag < 8; ++tag)
    ids.push_back(frontend.submit(small_request(tag, /*nsteps=*/120)));

  auto halt = std::async(std::launch::async, [&] {
    frontend.halt_shard(0);
    frontend.halt_shard(1);
  });
  bounded_get(halt, "halt_shard");
  auto wait = std::async(std::launch::async, [&] { frontend.wait_all(); });
  bounded_get(wait, "wait_all after halting every shard");

  int failed = 0;
  for (int id : ids) {
    const FrontendJob rec = frontend.job(id);
    if (rec.state == JobState::Failed) {
      ++failed;
      EXPECT_NE(rec.error.find("every shard is halted"), std::string::npos)
          << rec.error;
    } else {
      EXPECT_EQ(rec.state, JobState::Done) << "job " << id;
    }
  }
  EXPECT_GT(failed, 0) << "the halts stranded no queued job";

  auto late = std::async(std::launch::async,
                         [&] { return frontend.submit(small_request(100)); });
  const FrontendJob rec =
      frontend.job(bounded_get(late, "a submit after every shard halted"));
  EXPECT_EQ(rec.state, JobState::Failed);
  EXPECT_NE(rec.error.find("every shard is halted"), std::string::npos)
      << rec.error;
  frontend.shutdown();
}

// ---- the fault-injection scenario (satellite 2) ----

TEST(ShardedFrontend, KilledShardsBacklogIsStolenWithBitIdenticalResults) {
  FrontendConfig config;
  config.num_shards = 3;
  config.workers_per_shard = 1;
  config.shard_queue_capacity = 16;
  config.work_dir = temp_dir("steal");
  ShardedFrontend frontend(config);

  // Probe the ring for requests homed on the victim shard. nsteps is a
  // content-key field, so the long occupier needs its own probe.
  const int victim = 0;
  std::vector<JobRequest> victim_jobs;
  for (int tag = 0; victim_jobs.size() < 4 && tag < 4000; ++tag) {
    JobRequest r = small_request(tag, /*nsteps=*/10);
    if (frontend.ring().shard_for(request_key(r)) == victim)
      victim_jobs.push_back(r);
  }
  ASSERT_EQ(victim_jobs.size(), 4u);
  JobRequest long_job;
  {
    int tag = 4000;
    for (;; ++tag) {
      ASSERT_LT(tag, 8000);
      long_job = small_request(tag, /*nsteps=*/600);
      if (frontend.ring().shard_for(request_key(long_job)) == victim)
        break;
    }
  }

  // Occupy the victim's single worker with the long job, then queue the
  // backlog behind it (below the steal threshold: nobody may steal yet).
  const int long_id = frontend.submit(long_job);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (frontend.job(long_id).state != JobState::Running) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "long job never started";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<int> backlog;
  for (const JobRequest& r : victim_jobs)
    backlog.push_back(frontend.submit(r));
  for (int id : backlog)
    ASSERT_EQ(frontend.job(id).state, JobState::Queued);

  // Kill the shard mid-campaign. Its worker finishes the long job, then
  // exits; the queued backlog MUST be stolen by the surviving shards.
  frontend.halt_shard(victim);
  frontend.wait_all();

  EXPECT_EQ(frontend.job(long_id).state, JobState::Done);
  for (int id : backlog) {
    const FrontendJob rec = frontend.job(id);
    EXPECT_EQ(rec.state, JobState::Done) << "job " << id << ": "
                                         << rec.error;
    EXPECT_EQ(rec.home_shard, victim);
    EXPECT_NE(rec.executed_shard, victim) << "job " << id;
    EXPECT_TRUE(rec.stolen) << "job " << id;
  }
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.failed, 0u);                     // zero lost jobs
  EXPECT_EQ(stats.completed, stats.submitted);     // campaign completed
  EXPECT_GE(stats.stolen, backlog.size());
  frontend.shutdown();

  // Stolen executions must be bit-identical to a standalone run of the
  // same request (stealing may move WHERE a job runs, never WHAT it
  // computes).
  const GllBasis basis(4);
  MeshCache standalone_cache(basis);
  for (std::size_t i = 0; i < victim_jobs.size(); ++i) {
    const std::optional<JobResult> served = frontend.result(backlog[i]);
    ASSERT_TRUE(served.has_value());
    const ExecutionOutcome direct =
        execute_job(victim_jobs[i], standalone_cache,
                    temp_dir("steal_ref"), /*max_retries=*/0);
    expect_bit_identical(*served, direct.result);
  }
}

TEST(ShardedFrontend, JsonReportContainsAllThreeSections) {
  FrontendConfig config;
  config.num_shards = 2;
  config.work_dir = temp_dir("report");
  ShardedFrontend frontend(config);
  frontend.submit(small_request(1));
  frontend.submit(small_request(1));
  frontend.wait_all();

  std::ostringstream os;
  frontend.write_json_report(os);
  const std::string report = os.str();
  EXPECT_NE(report.find("\"frontend\""), std::string::npos);
  EXPECT_NE(report.find("\"shards\""), std::string::npos);
  EXPECT_NE(report.find("\"jobs\""), std::string::npos);
  EXPECT_NE(report.find("\"cache_hit_rate\""), std::string::npos);

  // The registry mirrors the same counters for the metrics surface.
  const metrics::Registry& reg = frontend.registry();
  EXPECT_EQ(reg.counters().at("frontend.jobs_submitted").value(), 2u);
  EXPECT_EQ(reg.counters().at("frontend.jobs_executed").value(), 1u);
  frontend.shutdown();
}

}  // namespace
}  // namespace sfg::service
