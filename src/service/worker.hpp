#pragma once

/// \file worker.hpp
/// Job execution engine of the campaign service (ISSUE 5): the code one
/// worker context runs to turn a JobRequest into a JobResult.
///
/// Two pieces:
///
///  * MeshCache — meshes and material fields are pure functions of the
///    (NEX, NPROC, model, extent) axes of a request, and building them is
///    the per-run serial bottleneck the related DMPlex-workflow line of
///    work attacks. The cache shares one immutable slice per key across
///    all jobs and workers (Simulation copies what it mutates). With
///    configure_spill() it runs out-of-core (ISSUE 8): least-recently-used
///    slices beyond the resident cap serialize into one sfg_io container
///    and reload on their next use, bounding memory across a campaign of
///    many mesh shapes.
///
///  * execute_job — marches the request over an smpi::World (nranks
///    in-process ranks; serial fast path at nranks == 1), injecting the
///    request's FaultSpec into the FIRST attempt, writing periodic
///    per-rank checkpoints at the request's cadence, and on a fault abort
///    retrying from the last CONSISTENT checkpoint set (all ranks at the
///    same step — verified via the snapshots themselves) instead of from
///    scratch. The checkpoint/restart bit-identity contract (ISSUE 2)
///    makes a recovered job's seismograms equal a never-faulted run's bit
///    for bit.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/blob_store.hpp"
#include "mesh/cartesian.hpp"
#include "quadrature/gll.hpp"
#include "service/job.hpp"
#include "service/result_store.hpp"
#include "solver/materials.hpp"

namespace sfg::service {

/// Shared, immutable mesh+materials for one rank of one request shape.
struct CachedSlice {
  HexMesh mesh;
  MaterialFields materials;
  /// Inter-slice boundary point keys/ids (empty for serial meshes).
  std::vector<std::int64_t> boundary_keys;
  std::vector<int> boundary_points;
};

/// Thread-safe cache of built slices, keyed on (nex, nranks, rank, model,
/// extent) — the campaign-level mesh reuse.
class MeshCache {
 public:
  explicit MeshCache(const GllBasis& basis) : basis_(basis) {}

  MeshCache(const MeshCache&) = delete;
  MeshCache& operator=(const MeshCache&) = delete;

  /// The slice for `rank` of `r`'s decomposition (rank 0 of 1 = serial
  /// full box). Builds and caches on first use; reloads from the spill
  /// container when the slice was evicted.
  std::shared_ptr<const CachedSlice> get(const JobRequest& r, int rank);

  /// Switch to out-of-core mode: keep at most `max_resident` slices in
  /// memory, spilling the least-recently-used ones as chunks of the
  /// sfg_io container at `container_path`. Call before workers start.
  void configure_spill(const std::string& container_path,
                       std::size_t max_resident);

  const GllBasis& basis() const { return basis_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t spills() const;      ///< evictions written to the container
  std::uint64_t spill_hits() const;  ///< gets served by reloading a spill
  std::size_t resident() const;      ///< slices currently in memory

 private:
  void evict_over_cap_locked();

  const GllBasis& basis_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const CachedSlice>> slices_;
  /// Monotonic use tick per key — the LRU order of slices_.
  std::map<std::string, std::uint64_t> last_use_;
  std::uint64_t tick_ = 0;
  std::unique_ptr<io::BlobStore> spill_store_;
  std::size_t max_resident_ = 0;  ///< 0 = unbounded (no spilling)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t spills_ = 0;
  std::uint64_t spill_hits_ = 0;
};

/// What execute_job hands back to the service.
struct ExecutionOutcome {
  JobResult result;
  int attempts = 0;
  /// Step the successful attempt resumed from (-1 = ran cold).
  int resumed_from_step = -1;
  /// Per-rank steps marched, summed over attempts (failed attempts
  /// contribute the steps completed before the abort).
  std::int64_t steps_executed = 0;
};

/// Execute `r` to completion, retrying aborted attempts (at most
/// `max_retries` retries) from the last consistent periodic checkpoint
/// set under `scratch_dir` (emptied before the first attempt, removed on
/// success). `backend` places the per-rank checkpoints: one file per rank,
/// or all ranks as chunks of a single `checkpoints.sfgc` container in the
/// scratch directory.
/// Throws sfg::CheckError / std::runtime_error when the job cannot be
/// completed (bad request, retries exhausted).
ExecutionOutcome execute_job(
    const JobRequest& r, MeshCache& cache, const std::string& scratch_dir,
    int max_retries,
    io::IoBackendKind backend = io::IoBackendKind::PerRankFiles);

}  // namespace sfg::service
