#include "service/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace sfg::service {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest double representation that round-trips through strtod, so a
/// request serialized with request_to_json re-parses to the same content
/// key bit for bit.
std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const std::vector<double> kLatencyBuckets = {0.001, 0.01, 0.1, 1.0,
                                             10.0, 60.0};

const char* const kNoLiveShardError =
    "every shard is halted: no worker is left to run the job";

}  // namespace

// ---- shard queue set ----

ShardQueueSet::ShardQueueSet(int nshards, std::size_t capacity)
    : nshards_(nshards),
      capacity_(capacity),
      queues_(static_cast<std::size_t>(nshards)),
      peaks_(static_cast<std::size_t>(nshards), 0),
      halted_(static_cast<std::size_t>(nshards), false),
      live_shards_(nshards) {
  SFG_CHECK_MSG(nshards >= 1, "queue set needs at least one shard");
  SFG_CHECK_MSG(capacity >= 1, "shard queues need capacity >= 1");
}

int ShardQueueSet::spill_target_locked(int home) const {
  int best = -1;
  std::size_t best_size = capacity_;  // only queues with space qualify
  for (int q = 0; q < nshards_; ++q) {
    if (q == home || halted_[static_cast<std::size_t>(q)]) continue;
    const std::size_t n = queues_[static_cast<std::size_t>(q)].size();
    if (n < best_size) {
      best = q;
      best_size = n;
    }
  }
  return best;
}

int ShardQueueSet::steal_source_locked(int shard) const {
  for (int d = 1; d < nshards_; ++d) {
    const auto q = static_cast<std::size_t>((shard + d) % nshards_);
    if (queues_[q].empty()) continue;
    // Steal only where locality is already lost: a dead shard's backlog,
    // a full queue, or the final drain after close().
    if (halted_[q] || closed_ || queues_[q].size() >= capacity_)
      return static_cast<int>(q);
  }
  return -1;
}

int ShardQueueSet::submit(int home, QueueEntry entry) {
  SFG_CHECK_MSG(home >= 0 && home < nshards_, "bad home shard " << home);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (closed_) return kClosed;
    if (live_shards_ == 0) return kNoLiveShard;
    const auto h = static_cast<std::size_t>(home);
    int target = -1;
    if (!halted_[h] && queues_[h].size() < capacity_)
      target = home;
    else
      target = spill_target_locked(home);
    if (target >= 0) {
      const auto t = static_cast<std::size_t>(target);
      entry.seq = next_seq_++;
      queues_[t].insert(entry);
      peaks_[t] = std::max(peaks_[t], queues_[t].size());
      // Wake every waiting worker: a saturated queue may just have become
      // stealable by any of them.
      not_empty_.notify_all();
      return target;
    }
    not_full_.wait(lock);  // backpressure: every live queue is full
  }
}

std::optional<ShardQueueSet::Popped> ShardQueueSet::pop_for(int shard) {
  SFG_CHECK_MSG(shard >= 0 && shard < nshards_, "bad shard " << shard);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (halted_[static_cast<std::size_t>(shard)]) return std::nullopt;
    int src = !queues_[static_cast<std::size_t>(shard)].empty()
                  ? shard
                  : steal_source_locked(shard);
    if (src >= 0) {
      auto& q = queues_[static_cast<std::size_t>(src)];
      Popped p{*q.begin(), src};
      q.erase(q.begin());
      not_full_.notify_all();
      return p;
    }
    if (closed_) return std::nullopt;  // closed and nothing left to drain
    not_empty_.wait(lock);
  }
}

std::vector<QueueEntry> ShardQueueSet::halt(int shard) {
  SFG_CHECK_MSG(shard >= 0 && shard < nshards_, "bad shard " << shard);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!halted_[static_cast<std::size_t>(shard)]) {
    halted_[static_cast<std::size_t>(shard)] = true;
    --live_shards_;
  }
  std::vector<QueueEntry> stranded;
  if (live_shards_ == 0)
    for (auto& q : queues_) {
      stranded.insert(stranded.end(), q.begin(), q.end());
      q.clear();
    }
  // The dead shard's workers wake and exit; everyone else wakes because
  // the halted queue became stealable and stopped taking spills, and a
  // blocked submitter wakes to find no live shard left.
  not_empty_.notify_all();
  not_full_.notify_all();
  return stranded;
}

bool ShardQueueSet::halted(int shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return halted_[static_cast<std::size_t>(shard)];
}

void ShardQueueSet::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::size_t ShardQueueSet::size(int shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_[static_cast<std::size_t>(shard)].size();
}

std::size_t ShardQueueSet::peak(int shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peaks_[static_cast<std::size_t>(shard)];
}

// ---- front-end ----

ShardedFrontend::ShardedFrontend(const FrontendConfig& config)
    : cfg_(config),
      basis_(4),
      ring_(config.num_shards, config.ring),
      scheduler_(config.admission, CostModel{config.pricing_machine}),
      queues_(config.num_shards, config.shard_queue_capacity),
      store_(config.work_dir + "/results", config.io_backend),
      mesh_cache_(basis_) {
  SFG_CHECK_MSG(cfg_.num_shards >= 1, "front-end needs at least one shard");
  SFG_CHECK_MSG(cfg_.workers_per_shard >= 1,
                "each shard needs at least one worker");
  caches_.reserve(static_cast<std::size_t>(cfg_.num_shards));
  shard_stats_.resize(static_cast<std::size_t>(cfg_.num_shards));
  for (int s = 0; s < cfg_.num_shards; ++s) {
    caches_.push_back(
        std::make_unique<TieredCache>(store_, cfg_.lru_entries_per_shard));
    shard_stats_[static_cast<std::size_t>(s)].shard = s;
  }
  if (cfg_.mesh_cache_max_resident > 0)
    mesh_cache_.configure_spill(cfg_.work_dir + "/mesh_cache",
                                cfg_.mesh_cache_max_resident);
  shard_joined_.assign(static_cast<std::size_t>(cfg_.num_shards), false);
  workers_.reserve(static_cast<std::size_t>(cfg_.num_shards) *
                   static_cast<std::size_t>(cfg_.workers_per_shard));
  for (int s = 0; s < cfg_.num_shards; ++s)
    for (int w = 0; w < cfg_.workers_per_shard; ++w)
      workers_.emplace_back([this, s] { worker_main(s); });
}

ShardedFrontend::~ShardedFrontend() { shutdown(); }

int ShardedFrontend::submit(const JobRequest& request) {
  const RequestKey key = request_key(request);
  const int home = ring_.shard_for(key);
  int id = -1;
  bool enqueue = false;
  QueueEntry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(records_.size());
    FrontendJob rec;
    rec.id = id;
    rec.request = request;
    rec.key = key;
    rec.home_shard = home;
    rec.submit_time_s = lifetime_.seconds();
    ++stats_.submitted;
    ++shard_stats_[static_cast<std::size_t>(home)].routed;

    CacheTier tier = CacheTier::Miss;
    if (caches_[static_cast<std::size_t>(home)]->get(key, &tier) !=
        nullptr) {
      rec.state = JobState::Done;
      rec.cache_hit = true;
      rec.tier = tier;
      rec.done_time_s = lifetime_.seconds();
      ++stats_.completed;
      ++stats_.cache_hits;
      if (tier == CacheTier::Memory)
        ++stats_.memory_hits;
      else
        ++stats_.store_hits;
      registry_.histogram("frontend.latency_seconds", kLatencyBuckets)
          .record(rec.latency_seconds());
      records_.push_back(std::move(rec));
      return id;
    }
    if (auto it = inflight_.find(key); it != inflight_.end()) {
      // Global coalescing: the ring sent every holder of this key here,
      // so one in-flight map catches duplicates from every submitter.
      rec.state = JobState::Coalesced;
      rec.coalesced = true;
      waiters_[key].push_back(id);
      ++pending_;
      records_.push_back(std::move(rec));
      return id;
    }

    RejectionReason why;
    const std::optional<double> cost = scheduler_.admit(request, &why);
    if (!cost.has_value()) {
      rec.state = JobState::Rejected;
      rec.error = why.message;
      ++stats_.rejected;
      records_.push_back(std::move(rec));
      return id;
    }
    rec.state = JobState::Queued;
    rec.predicted_core_seconds = *cost;
    stats_.predicted_core_seconds += *cost;
    inflight_[key] = id;
    ++pending_;
    records_.push_back(std::move(rec));

    entry.job_id = id;
    entry.priority = request.priority;
    entry.cost_core_seconds = *cost;
    enqueue = true;
  }
  if (enqueue) {
    // Blocking backpressure OUTSIDE the front-end lock, exactly like the
    // single-process service: a full fleet stalls this submitter without
    // stalling workers or other submitters.
    const int queued_on = queues_.submit(home, entry);
    if (queued_on == ShardQueueSet::kNoLiveShard) {
      fail_job(id, key, kNoLiveShardError);
    } else if (queued_on < 0) {
      fail_job(id, key,
               "front-end shut down before the job could be queued");
    } else {
      std::lock_guard<std::mutex> lock(mutex_);
      record_locked(id).queued_shard = queued_on;
      ++shard_stats_[static_cast<std::size_t>(queued_on)].queued;
      if (queued_on != home) ++stats_.spilled;
    }
  }
  return id;
}

void ShardedFrontend::worker_main(int shard) {
  while (auto popped = queues_.pop_for(shard)) run_one(*popped, shard);
}

void ShardedFrontend::run_one(const ShardQueueSet::Popped& popped,
                              int executing_shard) {
  const int id = popped.entry.job_id;
  JobRequest request;
  RequestKey key = 0;
  int home = 0;
  const bool stolen = popped.source != executing_shard;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FrontendJob& rec = record_locked(id);
    rec.state = JobState::Running;
    rec.executed_shard = executing_shard;
    rec.stolen = stolen;
    request = rec.request;
    key = rec.key;
    home = rec.home_shard;
  }
  const std::string scratch =
      cfg_.work_dir + "/jobs/" + std::to_string(id);
  try {
    ExecutionOutcome out = execute_job(request, mesh_cache_, scratch,
                                       cfg_.max_retries, cfg_.io_backend);
    // Results always land in the HOME shard's memory tier (plus the
    // shared store): the ring routes every future lookup of this key
    // there, even when a stolen execution ran elsewhere.
    caches_[static_cast<std::size_t>(home)]->put(key, out.result);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FrontendJob& rec = record_locked(id);
      rec.attempts = out.attempts;
      rec.resumed_from_step = out.resumed_from_step;
      rec.steps_executed = out.steps_executed;
      ++stats_.executed;
      stats_.retries +=
          static_cast<std::uint64_t>(std::max(0, out.attempts - 1));
      const CostModel& model = scheduler_.cost_model();
      const double executed =
          priced_core_seconds(request, out.steps_executed, model);
      stats_.priced_core_seconds += executed;
      stats_.retry_overhead_core_seconds +=
          executed - priced_core_seconds(request, request.nsteps, model);
      // What the same fault would have cost without checkpoints: the dead
      // attempt's steps plus a full cold re-run.
      if (out.attempts > 1 && !request.fault.empty()) {
        const std::int64_t cold_steps =
            request.nsteps + std::min(request.fault.kill_step, request.nsteps);
        stats_.cold_restart_core_seconds +=
            priced_core_seconds(request, cold_steps, model);
      } else {
        stats_.cold_restart_core_seconds += executed;
      }
      ShardStats& ss = shard_stats_[static_cast<std::size_t>(executing_shard)];
      ++ss.executed;
      if (stolen) {
        ++ss.stolen;
        ++stats_.stolen;
      }
    }
    complete_job(id, key, /*cache_hit=*/false, CacheTier::Miss);
  } catch (const std::exception& e) {
    fail_job(id, key, e.what());
  }
}

void ShardedFrontend::complete_job(int id, RequestKey key, bool cache_hit,
                                   CacheTier tier) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double now = lifetime_.seconds();
  FrontendJob& rec = record_locked(id);
  rec.state = JobState::Done;
  rec.cache_hit = cache_hit;
  rec.tier = tier;
  rec.done_time_s = now;
  ++stats_.completed;
  if (cache_hit) ++stats_.cache_hits;
  registry_.histogram("frontend.latency_seconds", kLatencyBuckets)
      .record(rec.latency_seconds());
  SFG_CHECK(pending_ > 0);
  --pending_;
  inflight_.erase(key);
  if (auto it = waiters_.find(key); it != waiters_.end()) {
    for (int w : it->second) {
      FrontendJob& wrec = record_locked(w);
      wrec.state = JobState::Done;
      wrec.cache_hit = true;
      wrec.done_time_s = now;
      ++stats_.completed;
      ++stats_.cache_hits;
      ++stats_.coalesced_hits;
      registry_.histogram("frontend.latency_seconds", kLatencyBuckets)
          .record(wrec.latency_seconds());
      SFG_CHECK(pending_ > 0);
      --pending_;
    }
    waiters_.erase(it);
  }
  all_done_.notify_all();
}

void ShardedFrontend::fail_job(int id, RequestKey key,
                               const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double now = lifetime_.seconds();
  FrontendJob& rec = record_locked(id);
  rec.state = JobState::Failed;
  rec.error = error;
  rec.done_time_s = now;
  ++stats_.failed;
  registry_.histogram("frontend.latency_seconds", kLatencyBuckets)
      .record(rec.latency_seconds());
  SFG_CHECK(pending_ > 0);
  --pending_;
  inflight_.erase(key);
  if (auto it = waiters_.find(key); it != waiters_.end()) {
    for (int w : it->second) {
      FrontendJob& wrec = record_locked(w);
      wrec.state = JobState::Failed;
      wrec.error = "primary job " + std::to_string(id) + " failed: " + error;
      wrec.done_time_s = now;
      ++stats_.failed;
      SFG_CHECK(pending_ > 0);
      --pending_;
    }
    waiters_.erase(it);
  }
  all_done_.notify_all();
}

void ShardedFrontend::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [&] { return pending_ == 0; });
}

void ShardedFrontend::halt_shard(int shard) {
  SFG_CHECK_MSG(shard >= 0 && shard < cfg_.num_shards,
                "unknown shard " << shard);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard_joined_[static_cast<std::size_t>(shard)]) return;
    shard_stats_[static_cast<std::size_t>(shard)].halted = true;
  }
  for (const QueueEntry& e : queues_.halt(shard))
    fail_job(e.job_id, job(e.job_id).key, kNoLiveShardError);
  // Join that shard's workers OUTSIDE the front-end mutex: a worker
  // finishing its current job needs the mutex to complete it.
  const std::size_t first = static_cast<std::size_t>(shard) *
                            static_cast<std::size_t>(cfg_.workers_per_shard);
  for (int w = 0; w < cfg_.workers_per_shard; ++w) {
    std::thread& t = workers_[first + static_cast<std::size_t>(w)];
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  shard_joined_[static_cast<std::size_t>(shard)] = true;
}

void ShardedFrontend::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queues_.close();  // pending entries drain (any live worker), then exit
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
}

FrontendJob ShardedFrontend::job(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return record_locked(id);
}

std::vector<FrontendJob> ShardedFrontend::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::optional<JobResult> ShardedFrontend::result(int id) const {
  RequestKey key = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const FrontendJob& rec = record_locked(id);
    if (rec.state != JobState::Done) return std::nullopt;
    key = rec.key;
  }
  return store_.load(key);
}

FrontendJob& ShardedFrontend::record_locked(int id) {
  SFG_CHECK_MSG(id >= 0 && id < static_cast<int>(records_.size()),
                "unknown job id " << id);
  return records_[static_cast<std::size_t>(id)];
}

const FrontendJob& ShardedFrontend::record_locked(int id) const {
  SFG_CHECK_MSG(id >= 0 && id < static_cast<int>(records_.size()),
                "unknown job id " << id);
  return records_[static_cast<std::size_t>(id)];
}

FrontendStats ShardedFrontend::stats_locked() const {
  FrontendStats s = stats_;
  s.mesh_cache_hits = mesh_cache_.hits();
  s.mesh_cache_misses = mesh_cache_.misses();
  for (int q = 0; q < cfg_.num_shards; ++q)
    s.queue_peak = std::max(s.queue_peak, queues_.peak(q));
  s.wall_seconds = lifetime_.seconds();
  return s;
}

FrontendStats ShardedFrontend::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_locked();
}

std::vector<ShardStats> ShardedFrontend::shard_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ShardStats> out = shard_stats_;
  for (int s = 0; s < cfg_.num_shards; ++s) {
    auto& ss = out[static_cast<std::size_t>(s)];
    const TieredCache& c = *caches_[static_cast<std::size_t>(s)];
    ss.memory_hits = c.memory_hits();
    ss.store_hits = c.store_hits();
    ss.queue_peak = queues_.peak(s);
    ss.halted = queues_.halted(s);
  }
  return out;
}

const metrics::Registry& ShardedFrontend::registry() {
  std::lock_guard<std::mutex> lock(mutex_);
  const FrontendStats s = stats_locked();
  auto sync = [&](const char* name, std::uint64_t value) {
    metrics::Counter& c = registry_.counter(name);
    c.inc(value - c.value());
  };
  sync("frontend.jobs_submitted", s.submitted);
  sync("frontend.jobs_completed", s.completed);
  sync("frontend.jobs_failed", s.failed);
  sync("frontend.jobs_rejected", s.rejected);
  sync("frontend.cache_hits", s.cache_hits);
  sync("frontend.cache_memory_hits", s.memory_hits);
  sync("frontend.cache_store_hits", s.store_hits);
  sync("frontend.coalesced_hits", s.coalesced_hits);
  sync("frontend.jobs_executed", s.executed);
  sync("frontend.jobs_stolen", s.stolen);
  sync("frontend.jobs_spilled", s.spilled);
  sync("frontend.retries", s.retries);
  registry_.gauge("frontend.cache_hit_rate").set(s.cache_hit_rate());
  registry_.gauge("frontend.jobs_per_minute").set(s.jobs_per_minute());
  registry_.gauge("frontend.queue_peak")
      .set(static_cast<double>(s.queue_peak));
  return registry_;
}

void ShardedFrontend::write_json_report(std::ostream& os) const {
  const std::vector<ShardStats> per_shard = shard_stats();
  std::lock_guard<std::mutex> lock(mutex_);
  const FrontendStats s = stats_locked();
  os << "{\n  \"frontend\": {\n";
  os << "    \"num_shards\": " << cfg_.num_shards << ",\n";
  os << "    \"jobs_submitted\": " << s.submitted << ",\n";
  os << "    \"jobs_completed\": " << s.completed << ",\n";
  os << "    \"jobs_failed\": " << s.failed << ",\n";
  os << "    \"jobs_rejected\": " << s.rejected << ",\n";
  os << "    \"jobs_executed\": " << s.executed << ",\n";
  os << "    \"cache_hits\": " << s.cache_hits << ",\n";
  os << "    \"cache_hit_rate\": " << s.cache_hit_rate() << ",\n";
  os << "    \"memory_hits\": " << s.memory_hits << ",\n";
  os << "    \"store_hits\": " << s.store_hits << ",\n";
  os << "    \"coalesced_hits\": " << s.coalesced_hits << ",\n";
  os << "    \"stolen\": " << s.stolen << ",\n";
  os << "    \"spilled\": " << s.spilled << ",\n";
  os << "    \"retries\": " << s.retries << ",\n";
  os << "    \"queue_peak\": " << s.queue_peak << ",\n";
  os << "    \"predicted_core_seconds\": " << s.predicted_core_seconds
     << ",\n";
  os << "    \"priced_core_seconds\": " << s.priced_core_seconds << ",\n";
  os << "    \"retry_overhead_core_seconds\": "
     << s.retry_overhead_core_seconds << ",\n";
  os << "    \"cold_restart_core_seconds\": "
     << s.cold_restart_core_seconds << ",\n";
  os << "    \"wall_seconds\": " << s.wall_seconds << ",\n";
  os << "    \"jobs_per_minute\": " << s.jobs_per_minute() << "\n";
  os << "  },\n  \"shards\": [\n";
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    const ShardStats& ss = per_shard[i];
    os << "    {\"shard\": " << ss.shard << ", \"halted\": "
       << (ss.halted ? "true" : "false") << ", \"routed\": " << ss.routed
       << ", \"queued\": " << ss.queued << ", \"executed\": " << ss.executed
       << ", \"stolen\": " << ss.stolen
       << ", \"memory_hits\": " << ss.memory_hits
       << ", \"store_hits\": " << ss.store_hits
       << ", \"queue_peak\": " << ss.queue_peak << "}"
       << (i + 1 < per_shard.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const FrontendJob& r = records_[i];
    os << "    {\"id\": " << r.id << ", \"state\": \""
       << job_state_name(r.state) << "\", \"key\": \""
       << ResultStore::key_hex(r.key) << "\", \"home_shard\": "
       << r.home_shard << ", \"executed_shard\": " << r.executed_shard
       << ", \"cache_hit\": " << (r.cache_hit ? "true" : "false")
       << ", \"tier\": \"" << cache_tier_name(r.tier)
       << "\", \"coalesced\": " << (r.coalesced ? "true" : "false")
       << ", \"stolen\": " << (r.stolen ? "true" : "false")
       << ", \"attempts\": " << r.attempts
       << ", \"latency_seconds\": " << r.latency_seconds()
       << ", \"error\": \"" << json_escape(r.error) << "\"}"
       << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// ---- the line protocol ----

namespace {

/// One parsed protocol value: the grammar is deliberately tiny — numbers,
/// strings, and flat arrays of numbers cover the whole request shape.
struct JsonValue {
  enum class Kind { Number, String, Array } kind = Kind::Number;
  double number = 0.0;
  std::string string;
  std::vector<double> array;
};

using JsonFields = std::vector<std::pair<std::string, JsonValue>>;

/// Recursive-descent scanner for one `{"key": value, ...}` line.
class LineScanner {
 public:
  explicit LineScanner(const std::string& s) : s_(s) {}

  bool parse_object(JsonFields* out, std::string* error) {
    skip_ws();
    if (!consume('{')) return fail("expected '{'", error);
    skip_ws();
    if (consume('}')) return finish(error);
    for (;;) {
      std::pair<std::string, JsonValue> field;
      if (!parse_string(&field.first, error)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key", error);
      if (!parse_value(&field.second, error)) return false;
      out->push_back(std::move(field));
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return finish(error);
      return fail("expected ',' or '}'", error);
    }
  }

 private:
  bool finish(std::string* error) {
    skip_ws();
    if (i_ != s_.size()) return fail("trailing bytes after object", error);
    return true;
  }

  bool fail(const std::string& msg, std::string* error) {
    if (error != nullptr)
      *error = msg + " at byte " + std::to_string(i_);
    return false;
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\r' || s_[i_] == '\n'))
      ++i_;
  }

  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool parse_string(std::string* out, std::string* error) {
    skip_ws();
    if (!consume('"')) return fail("expected '\"'", error);
    out->clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i_ >= s_.size()) break;
        const char esc = s_[i_++];
        switch (esc) {
          case '"':  *out += '"'; break;
          case '\\': *out += '\\'; break;
          case 'n':  *out += '\n'; break;
          case 't':  *out += '\t'; break;
          default:
            return fail(std::string("unsupported escape '\\") + esc + "'",
                        error);
        }
        continue;
      }
      *out += c;
    }
    return fail("unterminated string", error);
  }

  bool parse_number(double* out, std::string* error) {
    skip_ws();
    const char* start = s_.c_str() + i_;
    char* after = nullptr;
    *out = std::strtod(start, &after);
    if (after == start) return fail("expected a number", error);
    i_ += static_cast<std::size_t>(after - start);
    return true;
  }

  bool parse_value(JsonValue* out, std::string* error) {
    skip_ws();
    if (i_ >= s_.size()) return fail("expected a value", error);
    if (s_[i_] == '"') {
      out->kind = JsonValue::Kind::String;
      return parse_string(&out->string, error);
    }
    if (s_[i_] == '[') {
      ++i_;
      out->kind = JsonValue::Kind::Array;
      skip_ws();
      if (consume(']')) return true;
      for (;;) {
        double v = 0.0;
        if (!parse_number(&v, error)) return false;
        out->array.push_back(v);
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'", error);
      }
    }
    out->kind = JsonValue::Kind::Number;
    return parse_number(&out->number, error);
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Integer fields take only integral numbers inside int's range: a
/// silently truncated 4.7 would change the content key from what was sent,
/// and converting an out-of-range double is undefined behaviour.
bool value_as_int(const JsonValue& v, int* out) {
  if (v.kind != JsonValue::Kind::Number) return false;
  const double d = v.number;
  if (!(d >= std::numeric_limits<int>::min() &&
        d <= std::numeric_limits<int>::max() && d == std::trunc(d)))
    return false;
  *out = static_cast<int>(d);
  return true;
}

std::string error_line(const std::string& message) {
  return "{\"error\": \"" + json_escape(message) + "\"}";
}

}  // namespace

std::string request_to_json(const JobRequest& r) {
  std::ostringstream os;
  os << "{\"nex\": " << r.nex << ", \"nranks\": " << r.nranks
     << ", \"model\": \""
     << (r.model == BoxModel::FluidLayer ? "fluid_layer" : "rock")
     << "\", \"extent_m\": " << json_double(r.extent_m)
     << ", \"source_x\": " << json_double(r.source.x)
     << ", \"source_y\": " << json_double(r.source.y)
     << ", \"source_z\": " << json_double(r.source.z)
     << ", \"force_x\": " << json_double(r.source.force[0])
     << ", \"force_y\": " << json_double(r.source.force[1])
     << ", \"force_z\": " << json_double(r.source.force[2])
     << ", \"f0\": " << json_double(r.source.f0)
     << ", \"t0\": " << json_double(r.source.t0)
     << ", \"dt\": " << json_double(r.dt) << ", \"nsteps\": " << r.nsteps
     << ", \"priority\": " << r.priority
     << ", \"checkpoint_interval_steps\": " << r.checkpoint_interval_steps
     << ", \"kill_rank\": " << r.fault.kill_rank
     << ", \"kill_step\": " << r.fault.kill_step << ", \"stations\": [";
  for (std::size_t s = 0; s < r.stations.size(); ++s) {
    const StationSpec& st = r.stations[s];
    os << (s > 0 ? ", " : "") << json_double(st.x) << ", "
       << json_double(st.y) << ", " << json_double(st.z);
  }
  os << "]}";
  return os.str();
}

bool parse_request_json(const std::string& line, JobRequest* out,
                        std::string* error) {
  JsonFields fields;
  LineScanner scanner(line);
  if (!scanner.parse_object(&fields, error)) return false;
  JobRequest r;
  for (const auto& [key, v] : fields) {
    bool ok = true;
    if (key == "nex") ok = value_as_int(v, &r.nex);
    else if (key == "nranks") ok = value_as_int(v, &r.nranks);
    else if (key == "nsteps") ok = value_as_int(v, &r.nsteps);
    else if (key == "priority") ok = value_as_int(v, &r.priority);
    else if (key == "checkpoint_interval_steps")
      ok = value_as_int(v, &r.checkpoint_interval_steps);
    else if (key == "kill_rank") ok = value_as_int(v, &r.fault.kill_rank);
    else if (key == "kill_step") ok = value_as_int(v, &r.fault.kill_step);
    else if (key == "extent_m" && v.kind == JsonValue::Kind::Number)
      r.extent_m = v.number;
    else if (key == "dt" && v.kind == JsonValue::Kind::Number)
      r.dt = v.number;
    else if (key == "source_x" && v.kind == JsonValue::Kind::Number)
      r.source.x = v.number;
    else if (key == "source_y" && v.kind == JsonValue::Kind::Number)
      r.source.y = v.number;
    else if (key == "source_z" && v.kind == JsonValue::Kind::Number)
      r.source.z = v.number;
    else if (key == "force_x" && v.kind == JsonValue::Kind::Number)
      r.source.force[0] = v.number;
    else if (key == "force_y" && v.kind == JsonValue::Kind::Number)
      r.source.force[1] = v.number;
    else if (key == "force_z" && v.kind == JsonValue::Kind::Number)
      r.source.force[2] = v.number;
    else if (key == "f0" && v.kind == JsonValue::Kind::Number)
      r.source.f0 = v.number;
    else if (key == "t0" && v.kind == JsonValue::Kind::Number)
      r.source.t0 = v.number;
    else if (key == "model") {
      if (v.kind == JsonValue::Kind::String)
        ok = (v.string == "rock" &&
              (r.model = BoxModel::UniformRock, true)) ||
             (v.string == "fluid_layer" &&
              (r.model = BoxModel::FluidLayer, true));
      else if (int m = -1; value_as_int(v, &m) && (m == 0 || m == 1))
        r.model = m == 1 ? BoxModel::FluidLayer : BoxModel::UniformRock;
      else
        ok = false;
      if (!ok && error != nullptr)
        *error = "model must be \"rock\", \"fluid_layer\" or 0/1";
      if (!ok) return false;
    } else if (key == "stations") {
      if (v.kind != JsonValue::Kind::Array || v.array.size() % 3 != 0) {
        if (error != nullptr)
          *error = "stations must be a flat [x, y, z, ...] array "
                   "(3 numbers per station)";
        return false;
      }
      r.stations.clear();
      for (std::size_t i = 0; i < v.array.size(); i += 3)
        r.stations.push_back(
            {v.array[i], v.array[i + 1], v.array[i + 2]});
    } else {
      if (error != nullptr) *error = "unknown request field \"" + key + "\"";
      return false;
    }
    if (!ok) {
      if (error != nullptr)
        *error = "field \"" + key + "\" has the wrong type";
      return false;
    }
  }
  *out = r;
  return true;
}

std::string ShardedFrontend::handle_line(const std::string& line) {
  JsonFields fields;
  std::string error;
  {
    LineScanner scanner(line);
    if (!scanner.parse_object(&fields, &error)) return error_line(error);
  }
  // Control lines carry a "cmd" field; everything else is a request.
  for (const auto& [key, v] : fields) {
    if (key != "cmd") continue;
    if (v.kind != JsonValue::Kind::String)
      return error_line("cmd must be a string");
    if (v.string == "stats") {
      const FrontendStats s = stats();
      std::ostringstream os;
      os << "{\"submitted\": " << s.submitted << ", \"completed\": "
         << s.completed << ", \"failed\": " << s.failed
         << ", \"rejected\": " << s.rejected << ", \"cache_hits\": "
         << s.cache_hits << ", \"cache_hit_rate\": " << s.cache_hit_rate()
         << ", \"jobs_per_minute\": " << s.jobs_per_minute() << "}";
      return os.str();
    }
    if (v.string == "wait") {
      wait_all();
      return "{\"ok\": true}";
    }
    if (v.string == "job") {
      for (const auto& [k2, v2] : fields) {
        int id = -1;
        if (k2 == "id" && value_as_int(v2, &id)) {
          FrontendJob rec;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            if (id < 0 || id >= static_cast<int>(records_.size()))
              return error_line("unknown job id " + std::to_string(id));
            rec = records_[static_cast<std::size_t>(id)];
          }
          std::ostringstream os;
          os << "{\"id\": " << rec.id << ", \"state\": \""
             << job_state_name(rec.state) << "\", \"shard\": "
             << rec.home_shard << ", \"cache\": \""
             << (rec.cache_hit ? cache_tier_name(rec.tier) : "none")
             << "\", \"latency_seconds\": " << rec.latency_seconds()
             << "}";
          return os.str();
        }
      }
      return error_line("cmd \"job\" needs an integer \"id\"");
    }
    return error_line("unknown cmd \"" + v.string + "\"");
  }

  JobRequest request;
  if (!parse_request_json(line, &request, &error)) return error_line(error);
  const int id = submit(request);
  const FrontendJob rec = job(id);
  std::ostringstream os;
  os << "{\"id\": " << rec.id << ", \"key\": \""
     << ResultStore::key_hex(rec.key) << "\", \"shard\": "
     << rec.home_shard << ", \"state\": \"" << job_state_name(rec.state)
     << "\", \"cache\": \""
     << (rec.cache_hit ? cache_tier_name(rec.tier) : "none") << "\"";
  if (!rec.error.empty())
    os << ", \"error\": \"" << json_escape(rec.error) << "\"";
  os << "}";
  return os.str();
}

}  // namespace sfg::service
