#pragma once

/// \file frontend.hpp
/// Sharded campaign front-end (ISSUE 9): the "millions of users" step of
/// the ROADMAP. One process-wide front door accepts job requests (C++
/// values or JSON lines — the `sfg_frontd` protocol) and routes each to
/// one of N in-process service shards by consistent hashing on the FNV-1a
/// content key, so duplicate requests from *different* users coalesce
/// globally no matter which user submitted first.
///
/// Anatomy of one shard: a bounded admission queue (priority desc, cost
/// asc, FIFO), a fixed worker pool, and a TieredCache (an in-memory LRU of
/// parsed results over the ONE shared on-disk ResultStore). The scheduler
/// (capacity-model admission), mesh cache and result store are shared
/// across shards; the ring keeps each key's lookups on one shard's LRU so
/// the zipfian head stays resident. One shard is the plain campaign
/// service: one queue, one worker pool, one store.
///
/// Flow of one submission:
///
///   submit(request) — key = request_key, home = ring.shard_for(key)
///     ├─ home shard's tiered cache hits (memory or store) → Done
///     ├─ key already queued/running anywhere             → Coalesced
///     ├─ Scheduler::admit rejects (capacity gate)        → Rejected
///     └─ else → home shard's bounded queue; when the home queue is
///        SATURATED (or its workers are dead) the entry spills to the
///        least-loaded shard, and idle workers of other shards STEAL
///        from saturated/halted queues — a killed shard's backlog drains
///        with zero lost jobs (the fault-injection contract).
///
/// Latency accounting: every record carries submit/done times on the
/// front-end clock; the load-test harness (loadgen.*) turns them into
/// the p50/p99 figures gated in BENCH_loadtest.json.

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perf/metrics.hpp"
#include "quadrature/gll.hpp"
#include "service/job.hpp"
#include "service/result_store.hpp"
#include "service/scheduler.hpp"
#include "service/shard_ring.hpp"
#include "service/tiered_cache.hpp"
#include "service/worker.hpp"

namespace sfg::service {

struct FrontendConfig {
  int num_shards = 2;
  int workers_per_shard = 1;
  std::size_t shard_queue_capacity = 32;
  /// Memory-tier entries per shard LRU (0 disables the memory tier).
  std::size_t lru_entries_per_shard = 64;
  /// Retries per job after the first attempt (fault-aborted attempts
  /// resume from the last consistent checkpoint set).
  int max_retries = 2;
  /// Root directory: the shared result store under <work_dir>/results,
  /// per-job scratch under <work_dir>/jobs/<id>.
  std::string work_dir = "frontend_work";
  AdmissionPolicy admission;
  const MachineSpec* pricing_machine = nullptr;  ///< null = franklin()
  /// sfg_io backend for the result store and per-job scratch checkpoints.
  /// The container default keeps a whole campaign at O(1) files — one
  /// results.sfgc plus one checkpoints.sfgc per in-flight job.
  io::IoBackendKind io_backend = io::IoBackendKind::Container;
  /// Out-of-core mesh cache (0 = keep every slice resident): the maximum
  /// resident slices before LRU spilling into <work_dir>/mesh_cache.sfgc.
  std::size_t mesh_cache_max_resident = 0;
  ShardRingOptions ring;
};

/// The front-end's ledger entry for one submitted request.
struct FrontendJob {
  int id = -1;
  JobRequest request;
  RequestKey key = 0;
  int home_shard = -1;      ///< ring-assigned owner of the key
  int queued_shard = -1;    ///< where the entry actually queued (-1 = never)
  int executed_shard = -1;  ///< whose worker computed it (-1 = not computed)
  JobState state = JobState::Queued;
  bool cache_hit = false;   ///< served without computing (tier or coalesced)
  CacheTier tier = CacheTier::Miss;  ///< serving tier when cache_hit
  bool coalesced = false;   ///< duplicate served by an in-flight primary
  bool stolen = false;      ///< executed by a worker of another shard
  int attempts = 0;         ///< execution attempts (0 for cache hits)
  /// Step the last retry resumed from (-1 = never restarted / cold).
  int resumed_from_step = -1;
  /// Time steps actually marched, summed over attempts (a failed attempt
  /// contributes the steps it completed before dying).
  std::int64_t steps_executed = 0;
  double predicted_core_seconds = 0.0;  ///< admission-time capacity price
  double submit_time_s = 0.0;  ///< front-end clock
  double done_time_s = 0.0;    ///< front-end clock; 0 until terminal
  std::string error;

  /// Submission-to-terminal-state latency (the load-test metric).
  double latency_seconds() const { return done_time_s - submit_time_s; }
};

/// Aggregate front-end counters (also exported via the metrics Registry).
struct FrontendStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;      ///< memory + store + coalesced
  std::uint64_t memory_hits = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t coalesced_hits = 0;
  std::uint64_t executed = 0;        ///< jobs actually computed
  std::uint64_t stolen = 0;          ///< executed from another shard's queue
  std::uint64_t spilled = 0;         ///< queued off-home (saturation/halt)
  std::uint64_t retries = 0;
  std::uint64_t mesh_cache_hits = 0;
  std::uint64_t mesh_cache_misses = 0;
  std::size_t queue_peak = 0;        ///< max over shards
  double predicted_core_seconds = 0.0;  ///< admitted predictions
  double priced_core_seconds = 0.0;     ///< executed steps, model-priced
  /// Core-seconds re-marched because of faults (executed minus the
  /// fault-free price of every computed job) — what retry costs.
  double retry_overhead_core_seconds = 0.0;
  /// What the same faults would have cost with cold re-runs instead of
  /// retry-from-checkpoint (model-priced; compare with the line above).
  double cold_restart_core_seconds = 0.0;
  double wall_seconds = 0.0;

  double cache_hit_rate() const {
    return completed > 0 ? static_cast<double>(cache_hits) /
                               static_cast<double>(completed)
                         : 0.0;
  }
  double jobs_per_minute() const {
    return wall_seconds > 0.0
               ? 60.0 * static_cast<double>(completed) / wall_seconds
               : 0.0;
  }
};

/// Per-shard counters for the report and the load balance gates.
struct ShardStats {
  int shard = -1;
  bool halted = false;
  std::uint64_t routed = 0;    ///< submissions whose home this shard is
  std::uint64_t queued = 0;    ///< entries placed on this shard's queue
  std::uint64_t executed = 0;  ///< jobs computed by this shard's workers
  std::uint64_t stolen = 0;    ///< of executed, taken from another queue
  std::uint64_t memory_hits = 0;
  std::uint64_t store_hits = 0;
  std::size_t queue_peak = 0;
};

/// One queued unit of work (the ledger record stays with the front-end).
struct QueueEntry {
  int job_id = -1;
  int priority = 0;             ///< higher runs first
  double cost_core_seconds = 0; ///< predicted cost; cheaper runs first
  std::uint64_t seq = 0;        ///< FIFO tiebreak, assigned by the queue
};

/// The per-shard bounded queues plus the spill/steal policy, all under one
/// lock (contention is per-job — nowhere near a hot path). Each queue pops
/// by priority (descending), then predicted cost (ascending: shortest job
/// first within a priority band), then FIFO. Pop prefers the worker's own
/// shard; stealing is restricted to full or halted queues so warm-shard
/// locality survives normal operation.
class ShardQueueSet {
 public:
  ShardQueueSet(int nshards, std::size_t capacity);

  struct Popped {
    QueueEntry entry;
    int source = -1;  ///< shard whose queue held the entry
  };

  /// Queue on `home`; spill to the least-loaded shard with space when
  /// home is full or halted; block while EVERY live queue is full
  /// (backpressure). Returns the shard queued on, kClosed when closed, or
  /// kNoLiveShard when every shard is halted.
  int submit(int home, QueueEntry entry);
  static constexpr int kClosed = -1;
  static constexpr int kNoLiveShard = -2;

  /// Blocking pop for a worker of `shard`: own queue first, then the best
  /// entry of a halted or full queue. nullopt when the shard is halted or
  /// the set is closed and drained.
  std::optional<Popped> pop_for(int shard);

  /// Mark a shard's workers dead: its pops return nullopt, its queue
  /// becomes unconditionally stealable and it stops accepting spills.
  /// Halting the last live shard empties every queue and returns the
  /// stranded entries: no worker is left to pop them.
  std::vector<QueueEntry> halt(int shard);
  bool halted(int shard) const;

  void close();  ///< submits fail; pops drain every queue, then end

  std::size_t size(int shard) const;
  std::size_t peak(int shard) const;

 private:
  struct Order {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.cost_core_seconds != b.cost_core_seconds)
        return a.cost_core_seconds < b.cost_core_seconds;
      return a.seq < b.seq;
    }
  };

  int spill_target_locked(int home) const;
  int steal_source_locked(int shard) const;

  const int nshards_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<std::set<QueueEntry, Order>> queues_;
  std::vector<std::size_t> peaks_;
  std::vector<bool> halted_;
  int live_shards_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

class ShardedFrontend {
 public:
  explicit ShardedFrontend(const FrontendConfig& config);
  ~ShardedFrontend();  ///< shutdown() if still running

  ShardedFrontend(const ShardedFrontend&) = delete;
  ShardedFrontend& operator=(const ShardedFrontend&) = delete;

  /// Submit one request. Blocks only when every live shard queue is full.
  /// Always returns a job id (rejections get a Rejected record).
  int submit(const JobRequest& request);

  /// The line protocol (one JSON object per line, see docs/service.md):
  /// a request line returns a `{"id":..,"shard":..,"state":..}` response;
  /// `{"cmd":"stats"}`, `{"cmd":"job","id":N}` and `{"cmd":"wait"}` are
  /// control lines; malformed input returns an `{"error":..}` line.
  std::string handle_line(const std::string& line);

  void wait_all();   ///< block until every submitted job is terminal
  void shutdown();   ///< stop accepting, drain, join all workers

  /// Ops/fault hook: kill one shard's workers (joins them after their
  /// current job). Queued work on that shard is stolen by the others;
  /// once no live shard remains, every queued job and every later submit
  /// fails at once.
  void halt_shard(int shard);

  FrontendJob job(int id) const;
  std::vector<FrontendJob> jobs() const;
  std::optional<JobResult> result(int id) const;

  FrontendStats stats() const;
  std::vector<ShardStats> shard_stats() const;
  const ShardRing& ring() const { return ring_; }
  const ResultStore& store() const { return store_; }
  int num_shards() const { return cfg_.num_shards; }

  /// Snapshot the aggregate counters into the front-end's Registry
  /// (frontend.* counters/gauges + request latency histogram).
  const metrics::Registry& registry();

  /// Machine-readable report: aggregate block, per-shard array, jobs
  /// array — the shape bench_loadtest and sfg_frontd emit.
  void write_json_report(std::ostream& os) const;

 private:
  void worker_main(int shard);
  void run_one(const ShardQueueSet::Popped& popped, int executing_shard);
  void complete_job(int id, RequestKey key, bool cache_hit, CacheTier tier);
  void fail_job(int id, RequestKey key, const std::string& error);
  FrontendJob& record_locked(int id);
  const FrontendJob& record_locked(int id) const;
  FrontendStats stats_locked() const;

  const FrontendConfig cfg_;
  const GllBasis basis_;
  ShardRing ring_;
  Scheduler scheduler_;
  ShardQueueSet queues_;
  ResultStore store_;
  std::vector<std::unique_ptr<TieredCache>> caches_;  ///< one per shard
  MeshCache mesh_cache_;
  metrics::Registry registry_;
  WallTimer lifetime_;

  mutable std::mutex mutex_;
  std::condition_variable all_done_;
  std::vector<FrontendJob> records_;
  std::map<RequestKey, int> inflight_;   ///< global coalescing map
  std::map<RequestKey, std::vector<int>> waiters_;
  std::uint64_t pending_ = 0;
  FrontendStats stats_;
  std::vector<ShardStats> shard_stats_;
  std::vector<std::thread> workers_;     ///< shard-major order
  std::vector<bool> shard_joined_;       ///< halt_shard already joined it
  bool shut_down_ = false;
};

/// Serialize a request as one protocol line (the exact format
/// handle_line parses — round-tripping preserves the content key).
std::string request_to_json(const JobRequest& r);

/// Parse one protocol line into a request. Returns false and fills
/// `error` on malformed input. Exposed for the loadgen/frontd tools and
/// the protocol tests.
bool parse_request_json(const std::string& line, JobRequest* out,
                        std::string* error);

}  // namespace sfg::service
