#pragma once

/// \file thread_pool.hpp
/// A small fixed-size thread pool for on-node parallelism inside one rank.
/// Two primitives are provided:
///
///  * parallel_for_chunked splits an index range into at most one
///    contiguous chunk per thread and runs the chunks concurrently,
///    blocking the caller until all complete. Chunk boundaries depend only
///    on (n, num_threads), never on scheduling, so any
///    thread-count-independent work assignment stays deterministic.
///
///  * parallel_for_schedule consumes PRECOMPUTED work units instead of
///    naive contiguous chunks: a WorkSchedule is a sequence of rounds,
///    each round a set of index ranges whose footprints the schedule
///    builder has proven mutually disjoint (see mesh/coloring.hpp). All
///    units of one round run concurrently; rounds are separated by a
///    barrier. Which thread runs which unit never affects results, so the
///    same schedule is bit-identical at any thread count.
///
/// The calling thread participates as thread 0; a pool of size 1 owns no
/// worker threads and runs everything inline, which keeps the
/// single-threaded solver path free of synchronization entirely.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sfg {

class ThreadPool {
 public:
  /// fn(thread, begin, end): process items [begin, end) on `thread`
  /// (0 .. num_threads-1). Each thread id runs at most one chunk per call,
  /// so `thread` can index per-thread scratch without further locking.
  using ChunkFn =
      std::function<void(int thread, std::size_t begin, std::size_t end)>;

  /// One precomputed work unit: a half-open index range into an array the
  /// caller owns (for the solver: a slice of a flattened element list).
  struct WorkUnit {
    std::size_t begin = 0, end = 0;
    std::size_t size() const { return end - begin; }
  };
  /// One round of a schedule: units that may run CONCURRENTLY. The
  /// schedule builder is responsible for proving their footprints
  /// disjoint. `tag` is opaque to the pool and handed back to the round
  /// observer.
  struct WorkRound {
    std::vector<WorkUnit> units;
    int tag = 0;
  };
  /// A full schedule: rounds execute in order with a barrier in between.
  struct WorkSchedule {
    std::vector<WorkRound> rounds;
    /// Total items covered by all units of all rounds.
    std::size_t total_items() const;
  };
  /// Called on the calling thread after each round completes, with the
  /// round index, its tag and its wall-clock duration.
  using RoundObserver =
      std::function<void(int round, int tag, double seconds)>;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return nthreads_; }

  /// Run fn over [0, n) split into ceil(n / num_threads)-sized chunks.
  /// Blocks until every chunk finished. The first exception thrown by any
  /// chunk is rethrown on the calling thread (after all chunks complete).
  /// Not reentrant: fn must not call back into the same pool.
  ///
  /// A call with n == 0 is a documented no-op: fn is never invoked, no
  /// workers are woken, and neither the per-thread busy accounting nor
  /// span_seconds()/parallel_calls() are touched.
  void parallel_for_chunked(std::size_t n, const ChunkFn& fn);

  /// Execute a precomputed schedule: for each round, run fn once per
  /// non-empty unit (fn(thread, unit.begin, unit.end)), all units of the
  /// round concurrently, then barrier before the next round. Rounds whose
  /// units are all empty are skipped entirely (observer not called). Each
  /// executed round counts as one parallel region in the busy/span
  /// accounting; exceptions propagate as in parallel_for_chunked, aborting
  /// before later rounds run.
  void parallel_for_schedule(const WorkSchedule& schedule, const ChunkFn& fn,
                             const RoundObserver& observer = nullptr);

  // ---- busy/idle accounting (ISSUE 3: color-schedule imbalance) ----
  // Each thread accumulates the wall time it spends inside its chunks;
  // the caller accumulates the span of every parallel region. Idle time
  // of thread t is span - busy[t]. Reads are safe any time the pool is
  // quiescent (parallel_for_chunked synchronizes before returning).
  double thread_busy_seconds(int thread) const;
  std::vector<double> busy_seconds() const;
  /// Summed wall-clock span of all parallel_for_chunked calls.
  double span_seconds() const { return span_seconds_; }
  std::uint64_t parallel_calls() const { return calls_; }

 private:
  void worker_main(int thread);
  void run_chunk(int thread, const ChunkFn& fn, std::size_t n);

  int nthreads_;
  std::vector<std::thread> workers_;

  /// One cache line per thread so chunk-time accumulation never bounces.
  struct alignas(64) ThreadTime {
    double busy = 0.0;
  };
  std::vector<ThreadTime> thread_time_;
  double span_seconds_ = 0.0;
  std::uint64_t calls_ = 0;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< bumped once per parallel_for call
  int remaining_ = 0;             ///< workers still running this generation
  std::size_t job_n_ = 0;
  const ChunkFn* job_fn_ = nullptr;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace sfg
