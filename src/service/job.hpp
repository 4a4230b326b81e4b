#pragma once

/// \file job.hpp
/// Campaign-service job model (ISSUE 5). A JobRequest is one simulation
/// request — event (source), model, resolution, stations, time-marching
/// parameters — the shape of one row of the paper's §6 campaign table
/// (Franklin/Kraken/Jaguar/Ranger runs planned ahead with the §5 models).
///
/// Requests are VALUES: trivially comparable, hashable, and serializable.
/// `request_key` is a content hash over exactly the fields that determine
/// the physics output; service-level knobs (priority, checkpoint cadence,
/// injected faults) are excluded, so two requests for the same physics
/// dedupe onto one cache entry even when their scheduling differs.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace sfg::service {

/// Material models a job can request (the "model" axis of the cache key).
enum class BoxModel : std::int32_t {
  UniformRock = 0,  ///< homogeneous solid box
  FluidLayer = 1,   ///< solid box with a fluid band (solid-fluid coupling)
};

/// A recording station (located exactly, Lagrange-interpolated).
struct StationSpec {
  double x = 0.0, y = 0.0, z = 0.0;
};

/// The seismic event: a Ricker point force.
struct SourceSpec {
  double x = 0.0, y = 0.0, z = 0.0;
  std::array<double, 3> force{0.0, 0.0, 0.0};
  double f0 = 10.0;  ///< Ricker dominant frequency
  double t0 = 0.1;   ///< Ricker delay
};

/// Declarative fault to inject into a job's FIRST attempt (smpi::FaultPlan
/// is built from this by the worker). Excluded from the content key: a
/// fault changes how a run is executed, never what it computes.
struct FaultSpec {
  int kill_rank = -1;  ///< rank that dies (< 0 = no injected death)
  int kill_step = -1;  ///< time step the death fires at (notify_step)
  bool empty() const { return kill_rank < 0 || kill_step < 0; }
};

/// One simulation request. Box-mesh based (the validation workhorse of the
/// repo): `nex` is the element count per box edge — the same resolution
/// axis as the globe mesher's NEX — and `nranks` the 1-D slice
/// decomposition (the NPROC axis of the mesh-cache key).
struct JobRequest {
  // ---- mesh / model / resolution (cache-key fields) ----
  int nex = 4;
  int nranks = 1;  ///< 1 = serial, n = n x 1 x 1 slice decomposition
  BoxModel model = BoxModel::UniformRock;
  double extent_m = 1000.0;  ///< cubic box edge length

  // ---- event + stations (cache-key fields) ----
  SourceSpec source;
  std::vector<StationSpec> stations;

  // ---- time marching (cache-key fields) ----
  double dt = 1.5e-3;
  int nsteps = 60;

  // ---- service knobs (NOT in the content key) ----
  int priority = 0;  ///< higher runs first
  /// Periodic checkpoint cadence while the job runs (steps; 0 = only
  /// cold restarts on retry). Retries resume from the last consistent
  /// per-rank checkpoint set instead of from scratch.
  int checkpoint_interval_steps = 0;
  FaultSpec fault;  ///< injected into the first attempt only
};

/// Content-address of a request: FNV-1a over the canonical encoding of
/// the physics fields (mesh, model, event, stations, marching). Service
/// knobs are excluded — see the file comment.
using RequestKey = std::uint64_t;

namespace detail {
inline void hash_bytes(RequestKey& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;  // FNV-1a 64-bit prime
  }
}
template <typename T>
void hash_value(RequestKey& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  hash_bytes(h, &v, sizeof(v));
}
}  // namespace detail

inline RequestKey request_key(const JobRequest& r) {
  RequestKey h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  detail::hash_value(h, std::int32_t{r.nex});
  detail::hash_value(h, std::int32_t{r.nranks});
  detail::hash_value(h, static_cast<std::int32_t>(r.model));
  detail::hash_value(h, r.extent_m);
  detail::hash_value(h, r.source.x);
  detail::hash_value(h, r.source.y);
  detail::hash_value(h, r.source.z);
  detail::hash_value(h, r.source.force);
  detail::hash_value(h, r.source.f0);
  detail::hash_value(h, r.source.t0);
  detail::hash_value(h, static_cast<std::int32_t>(r.stations.size()));
  for (const StationSpec& s : r.stations) {
    detail::hash_value(h, s.x);
    detail::hash_value(h, s.y);
    detail::hash_value(h, s.z);
  }
  detail::hash_value(h, r.dt);
  detail::hash_value(h, std::int32_t{r.nsteps});
  return h;
}

/// Lifecycle of one submitted job.
enum class JobState : std::int32_t {
  Rejected,   ///< admission control refused it (cost gate / bad request)
  Queued,     ///< admitted, waiting in a shard queue
  Coalesced,  ///< duplicate of an in-flight request; waits for the primary
  Running,    ///< claimed by a worker
  Done,       ///< result available in the store
  Failed,     ///< all retry attempts exhausted (or non-retryable error)
};

inline const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Rejected:  return "rejected";
    case JobState::Queued:    return "queued";
    case JobState::Coalesced: return "coalesced";
    case JobState::Running:   return "running";
    case JobState::Done:      return "done";
    case JobState::Failed:    return "failed";
  }
  return "?";
}

}  // namespace sfg::service
