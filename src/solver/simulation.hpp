#pragma once

/// \file simulation.hpp
/// The specfem3D-equivalent solver: explicit Newmark time marching of the
/// assembled global system M Ü + K U = F (paper §2.4) on a spectral-element
/// mesh with solid (elastic) and fluid (acoustic-potential) regions.
///
/// Physics included, matching the SPECFEM3D_GLOBE feature set the paper
/// describes: anelastic attenuation via SLS memory variables, non-iterative
/// solid-fluid coupling based on the displacement vector (paper §1, ref
/// [4]), Coriolis terms for Earth rotation, Stacey absorbing boundaries for
/// regional (1-chunk) mode, moment-tensor point sources and seismogram
/// recording at stations located either exactly (interpolated) or at the
/// nearest GLL point (paper §4.4).
///
/// Parallel runs: each MPI rank (smpi thread) owns one mesh slice plus an
/// Exchanger; the only communication in the time loop is the assembly of
/// the acceleration fields across slice boundaries, as in the real code.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "io/snapshot.hpp"
#include "kernels/force_kernel.hpp"
#include "mesh/coloring.hpp"
#include "mesh/faces.hpp"
#include "mesh/hex_mesh.hpp"
#include "model/attenuation.hpp"
#include "perf/metrics.hpp"
#include "runtime/exchanger.hpp"
#include "runtime/smpi.hpp"
#include "solver/materials.hpp"
#include "solver/sources.hpp"

namespace sfg {

/// Element-schedule variants for the time loop. Colored fixes one
/// per-point summation order (ascending color), so every Colored thread
/// count produces BIT-IDENTICAL results; Sequential (the legacy
/// element-order loop) differs from it by float-summation reordering
/// within roundoff.
enum class SolverSchedule {
  /// Sequential at num_threads == 1 with one LTS cluster, Colored
  /// otherwise (threaded runs and multi-cluster LTS).
  Auto,
  /// Legacy element-order loop. Requires num_threads == 1 and one
  /// cluster.
  Sequential,
  /// Color rounds (mesh/coloring.hpp): race-free scatter across threads,
  /// footprint disjointness proven at schedule build.
  Colored,
};

struct SimulationConfig {
  double dt = 0.0;

  /// Anelastic attenuation (paper §6: 1.8x runtime when on).
  bool attenuation = false;
  std::optional<SlsSeries> sls;  ///< required when attenuation is on

  /// Coriolis force of Earth rotation (omega around +z).
  bool rotation = false;
  double omega_rad_s = 0.0;

  /// Self-gravitation in the Cowling approximation: the perturbation of
  /// the gravitational potential is neglected but the background field
  /// g(r) of `gravity_model` acts on the displaced masses. Only
  /// meaningful for spherical meshes centred at the origin.
  bool gravity = false;
  const EarthModel* gravity_model = nullptr;

  /// Stacey absorbing boundary faces (regional mode). Empty = none.
  std::vector<ElementFace> absorbing_faces;

  /// Record seismograms every this many steps (at least 1).
  int record_every = 1;

  /// On-node threads for the element loops and global field updates.
  /// 1 (the default) is the legacy sequential path; > 1 switches to the
  /// colored element schedule (race-free scatter) with the halo exchange
  /// overlapped by interior-element compute.
  int num_threads = 1;

  /// Element-schedule selection; Auto resolves from num_threads and the
  /// cluster count (see SolverSchedule). A 1-thread Colored run is
  /// bit-identical to any multi-threaded one (the determinism reference).
  SolverSchedule schedule = SolverSchedule::Auto;

  /// Rate-2 clustered local time stepping. Elements are bucketed into dt
  /// clusters from `element_dt` (the per-element stable-dt estimate, see
  /// element_stable_dt); cluster k is evaluated every 2^k base steps, so `dt` — which stays the global fast step —
  /// no longer taxes the slow regions with the fast region's Courant
  /// bound. step() still advances exactly one base step of `dt`. An empty
  /// `element_dt` (the default) skips clustering: one cluster, which is
  /// global dt.
  ///
  /// Multi-cluster runs refuse attenuation, rotation, fluid regions and
  /// absorbing boundaries (their element updates carry per-step state the
  /// interpolation scheme does not yet serve) and require a colored
  /// schedule. Fluid elements are pinned to cluster 0.
  struct LtsOptions {
    /// Cluster-count cap: levels clamp to [0, max_levels).
    int max_levels = 8;
    /// Per-element stable dt (size nspec); empty = one cluster.
    std::vector<double> element_dt;
    /// TEST ONLY: injection teeth forwarded to the cluster builders so
    /// tests can prove the Simulation refuses an unsound cluster
    /// schedule. Never set in production code.
    ClusterOptions cluster;
  };
  LtsOptions lts;

  /// IPM-style per-step observability (ISSUE 3): phase timers, comm
  /// histograms, thread busy fractions. Default on (report-only); the
  /// Chrome-trace timeline is opt-in.
  metrics::MetricsConfig metrics;

  /// Periodic checkpointing (ISSUE 5): when > 0, write_checkpoint fires
  /// after every step whose index is a multiple of this cadence,
  /// overwriting `checkpoint_path` with `checkpoint_identity` (the
  /// snapshot write is atomic: unique tmp file + fsync + rename). 0
  /// disables.
  int checkpoint_interval_steps = 0;
  std::string checkpoint_path;
  io::SnapshotIdentity checkpoint_identity;
  /// sfg_io backend for periodic checkpoints (ISSUE 8): when set,
  /// `checkpoint_path` is the blob key inside this store (e.g. a chunk
  /// name in one shared container) instead of a filesystem path. Ranks of
  /// one run may share a store; ContainerStore serializes writers.
  std::shared_ptr<io::BlobStore> checkpoint_store;
};

/// Peek at a checkpoint file without a Simulation: the step index stored
/// in `path` when it opens cleanly under `identity`, or -1 when the file
/// is missing, corrupted, truncated, or pinned to a different identity.
/// Lets a supervisor decide whether a set of per-rank checkpoints is a
/// consistent restart point before building any rank state.
std::int64_t checkpoint_step(const std::string& path,
                             const io::SnapshotIdentity& identity);

/// Same peek against blob `key` of an sfg_io store (ISSUE 8) — a torn or
/// truncated container rejects wholesale, so this returns -1 for every
/// rank rather than ever serving partial state.
std::int64_t checkpoint_step(const io::BlobStore& store,
                             const std::string& key,
                             const io::SnapshotIdentity& identity);

/// Recorded three-component seismogram at one station.
struct Seismogram {
  std::vector<double> time;
  std::vector<std::array<double, 3>> displ;
};

/// Element-wise energy accounting (safe to sum across ranks).
struct EnergySnapshot {
  double kinetic = 0.0;    ///< solid kinetic energy
  double potential = 0.0;  ///< solid strain energy
  double fluid = 0.0;      ///< fluid kinetic + compressional energy
  double total() const { return kinetic + potential + fluid; }
};

class Simulation {
 public:
  /// `mesh`, `materials` describe this rank's slice. For parallel runs
  /// pass the rank's communicator and a pre-built exchanger over the
  /// slice-boundary points; both null for serial runs.
  Simulation(const HexMesh& mesh, const GllBasis& basis,
             MaterialFields materials, SimulationConfig config,
             smpi::Communicator* comm = nullptr,
             const smpi::Exchanger* exchanger = nullptr);

  // ---- setup ----
  void add_source(const PointSource& source);
  /// Add a station; returns its index. exact=true uses Lagrange
  /// interpolation at the located reference coordinates, exact=false the
  /// nearest-GLL-point shortcut of §4.4.
  int add_receiver(double x, double y, double z, bool exact = true);

  /// Collective source registration (ISSUE 3 bugfix). Every rank calls
  /// this with the same source; exactly one rank — elected by allreduce on
  /// (location error, rank), lowest error then lowest rank winning — adds
  /// it and returns true. Fixes the duplicated-source bug when the point
  /// lies on a slice boundary shared by several ranks, where the previous
  /// locate-locally-and-add pattern injected the source once per rank.
  /// All ranks must call in the same order (two allreduces per call).
  bool add_source_global(const PointSource& source);
  /// Collective receiver registration with the same owner election.
  /// Returns the receiver index on the owning rank, -1 elsewhere.
  int add_receiver_global(double x, double y, double z, bool exact = true);
  /// Override the order in which solid elements are processed (§4.2 loop
  /// order experiments). Must be a permutation of the solid element list.
  void set_solid_element_order(const std::vector<int>& order);

  /// Set initial displacement / velocity fields from callbacks evaluated
  /// at the global point coordinates (validation runs without a source).
  void set_initial_condition(
      const std::function<std::array<double, 3>(double, double, double)>&
          displ_at,
      const std::function<std::array<double, 3>(double, double, double)>&
          veloc_at = nullptr);

  // ---- time marching ----
  void step();
  void run(int nsteps);
  double time() const { return time_; }
  int step_count() const { return it_; }

  // ---- checkpoint / restart (ISSUE 2) ----
  /// Write this rank's full time-marching state (wavefields, attenuation
  /// memory variables, step index, recorded seismogram samples) to a
  /// versioned, CRC-protected per-rank snapshot. `identity` pins the run
  /// configuration (NEX/NPROC/nchunks/rank/nranks); restore rejects any
  /// mismatch. Restoring and running to completion is bit-identical to an
  /// uninterrupted run — the contract test_checkpoint enforces.
  void write_checkpoint(const std::string& path,
                        const io::SnapshotIdentity& identity) const;
  /// Same state written as blob `key` of an sfg_io store (ISSUE 8): the
  /// bytes are identical to the per-rank file, only the placement differs.
  void write_checkpoint(io::BlobStore& store, const std::string& key,
                        const io::SnapshotIdentity& identity) const;
  /// Load a snapshot written by write_checkpoint into a Simulation built
  /// with the same mesh, materials and config. Throws sfg::CheckError on
  /// corrupted/truncated files or identity/layout mismatches.
  void restore_checkpoint(const std::string& path,
                          const io::SnapshotIdentity& identity);
  /// Restore from blob `key` of an sfg_io store.
  void restore_checkpoint(const io::BlobStore& store, const std::string& key,
                          const io::SnapshotIdentity& identity);

  // ---- observation ----
  const Seismogram& seismogram(int receiver) const;
  const LocatedPoint& receiver_location(int receiver) const;
  EnergySnapshot compute_energy();  ///< collective when running parallel

  const aligned_vector<float>& displ() const { return displ_; }
  const aligned_vector<float>& veloc() const { return veloc_; }
  const aligned_vector<float>& accel() const { return accel_; }
  const aligned_vector<float>& chi() const { return chi_; }
  const aligned_vector<float>& chi_dot() const { return chi_dot_; }

  int nglob() const { return mesh_.nglob; }
  int num_solid_elements() const {
    return static_cast<int>(solid_elements_.size());
  }
  int num_fluid_elements() const {
    return static_cast<int>(fluid_elements_.size());
  }

  /// Analytic flop count of one time step on this rank (for the
  /// sustained-FLOPS model of paper §5).
  std::uint64_t flops_per_step() const;

  /// Bytes exchanged per step by the assembly communication on this rank.
  std::uint64_t comm_bytes_per_step() const;

  // ---- comm/compute overlap accounting (colored schedule only) ----
  /// Accumulated wall time spent computing interior elements inside the
  /// open halo-exchange window (between assemble_add_begin and _end).
  double overlap_compute_seconds() const { return overlap_compute_seconds_; }
  /// Accumulated wall time blocked in assemble_add_end after the interior
  /// work ran out — the part of the exchange NOT hidden by compute.
  double overlap_wait_seconds() const { return overlap_wait_seconds_; }
  int num_boundary_elements() const { return num_boundary_elements_; }
  /// The schedule variant actually running (config Auto resolved).
  SolverSchedule active_schedule() const { return schedule_; }

  // ---- per-step observability (ISSUE 3) ----
  /// The raw per-phase profile accumulated while stepping (empty when
  /// cfg_.metrics.enabled is false).
  const metrics::StepProfile& step_profile() const { return profile_; }
  /// Assemble the end-of-run report for this rank: phase breakdown, comm
  /// summary (from smpi::CommStats, same accounting as bench_fig6),
  /// per-thread busy fractions.
  metrics::RunReport metrics_report(const std::string& label = {}) const;
  /// Write the human-readable report (metrics_report) to `os`.
  void write_metrics_report(std::ostream& os,
                            const std::string& label = {}) const;
  /// This rank's timeline slices (requires cfg_.metrics.timeline). Merge
  /// the per-rank timelines with metrics::write_chrome_trace.
  metrics::RankTimeline metrics_timeline() const;

  // ---- clustered LTS observability (ISSUE 7) ----
  /// Number of dt clusters on this rank's partition after cross-rank
  /// smoothing (1 when element_dt is empty or every element shares one
  /// cluster).
  int lts_num_levels() const { return lts_num_levels_; }
  /// Cluster-interface GLL points receiving time-interpolated kinematics.
  int lts_num_interface_points() const {
    return static_cast<int>(lts_interp_.points.size());
  }
  /// Floats held by the multi-cluster marching buffers (the latched
  /// accelerations and the interface snapshots); 0 at one cluster.
  std::size_t lts_state_floats() const {
    return a_pred_.size() + interp_u0_.size() + interp_v0_.size() +
           interp_a0_.size();
  }
  /// Per-rate substep clocks: lts_clock()[r] counts completed rate-r
  /// strides; invariant clock[r] == step_count() >> r.
  const std::vector<std::int64_t>& lts_clock() const { return lts_clock_; }
  /// The smoothed cluster partition (empty level_of when element_dt is
  /// empty).
  const ClusterPartition& lts_partition() const { return lts_part_; }

 private:
  /// Shared bodies of the path- and store-based checkpoint entry points:
  /// both serialize/restore exactly the same sections.
  io::SnapshotWriter checkpoint_snapshot() const;
  void restore_from(const io::SnapshotReader& reader,
                    const std::string& label);
  /// The time-marching fields a checkpoint carries, declared once as
  /// (section name, field) pairs: checkpoint_snapshot() writes and
  /// restore_from() reads exactly this list, so new state cannot be saved
  /// without also being restored. `Self` is Simulation or const
  /// Simulation.
  template <class Self>
  static auto marching_state(Self& self);

  struct CouplingPoint {
    int iglob;
    double nx, ny, nz;  ///< normal outward from the FLUID region
    double weight;      ///< jacobian2D x quadrature weight
  };
  struct AbsorbingPoint {
    int iglob;
    std::size_t local;  ///< mesh-local point (for rho, vp, vs lookup)
    double nx, ny, nz;
    double weight;
  };
  struct ReceiverState {
    LocatedPoint loc;
    std::vector<int> node_glob;       ///< element nodes' global ids
    std::vector<double> weights;      ///< interpolation weights
    Seismogram seis;
  };

  /// Per-thread compute state, sized once at construction, so every
  /// thread processes batches without sharing scratch: the [point][lane]
  /// batch workspace and, with attenuation, the matching strided
  /// memory-variable pre-sums.
  struct ThreadScratch {
    BatchWorkspace bws;
    std::array<aligned_vector<float>, 6> r_sum_soa;
    /// Wall time this thread spent updating memory variables (nested
    /// inside the solid phases; only accumulated when metrics are on).
    double attenuation_seconds = 0.0;
    ThreadScratch(int ngll, int lanes, bool attenuation);
  };

  /// SoA-packed static element tables for the batched kernel:
  /// per batch, up to `lanes` elements' Jacobian/material/gravity tables
  /// interleaved [point][lane], packed ONCE at schedule build. Pad lanes
  /// replicate lane 0 so every lane computes valid numerics (rho != 0
  /// under the acoustic division); only real lanes are scattered.
  struct PackedBatches {
    int lanes = 0;
    std::size_t stride = 0;        ///< floats per field per batch
    std::vector<std::size_t> cut;  ///< batch b = items[cut[b], cut[b+1])
    std::vector<int> elems;        ///< [batch * lanes + lane], -1 = pad
    std::vector<int> counts;       ///< real lanes per batch
    aligned_vector<float> xix, xiy, xiz, etax, etay, etaz, gammax, gammay,
        gammaz, jacobian, kappav, muv, rho;
    aligned_vector<float> grav_g, grav_dgdr, grav_drhodr, grav_rx, grav_ry,
        grav_rz, grav_invr;
    std::size_t num_batches() const { return counts.size(); }
  };

  void build_mass_matrices();
  void build_coupling_surface();
  void build_absorbing_points();
  void build_colored_schedule();
  /// Build the smoothed cluster partition + interface set from a
  /// non-empty cfg_.lts.element_dt (cross-rank fixed-point smoothing via
  /// assemble_min); SFG_CHECKs the multi-cluster feature restrictions and
  /// the interface invariant (C-D) before any state is allocated.
  void build_cluster_partition_lts();
  /// Min-combine an int-valued per-point field across ranks (levels /
  /// rates fit exactly in float). No-op when serial.
  void exchange_point_min(std::vector<int>& values) const;
  /// Newmark predictor, the only one: at one cluster every point takes
  /// the global dt; with several, points due this substep take a full
  /// stride of their level's dt from a_pred_ and interface points get
  /// time-interpolated displacement instead. Fluid always takes dt.
  void lts_predict();
  /// Newmark corrector: at one cluster the global-dt half step; with
  /// several, due points finish their stride and latch accel into
  /// a_pred_. Per-rate clocks advance.
  void lts_correct();
  /// Source injection into the solid acceleration.
  void inject_sources();
  void compute_fluid_forces();
  /// Solid force pass: each marching rate whose stride ends this substep
  /// runs its checked schedule, ascending (boundary before the halo
  /// exchange, interior overlapped); one cluster is one rate-0 schedule.
  void compute_solid_forces();
  /// Pack the static SoA tables for the batches `cut` carves out of
  /// `items` (the Batched kernel's gather-once data).
  PackedBatches pack_batches(const std::vector<int>& items,
                             const std::vector<std::size_t>& cut) const;
  /// Sequential-schedule packing: consecutive runs of `elems` in legacy
  /// order, so the per-lane scatter preserves the legacy per-point
  /// summation order exactly.
  PackedBatches pack_sequential(const std::vector<int>& elems) const;
  /// Gather/compute/scatter one SoA batch (and its per-lane attenuation
  /// memory update).
  void process_solid_batch(const PackedBatches& pb, std::size_t b,
                           ThreadScratch& scratch);
  void process_fluid_batch(const PackedBatches& pb, std::size_t b,
                           ThreadScratch& scratch);
  /// Execute a precomputed color-round schedule (solid or fluid), via the
  /// pool when threaded or inline at one thread; round times feed the
  /// ScheduleRound nested phase timer. Each unit range is walked batch by
  /// batch through `packed` (whole batches tile every unit — checked at
  /// schedule build).
  void run_element_schedule(const ElementSchedule& schedule,
                            const PackedBatches& packed, bool solid);
  void parallel_over(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn);
  void gather_element_displ(int ispec, KernelWorkspace& ws);
  ElementPointers element_pointers(int ispec) const;
  /// Kernel inputs of batch `b`: pointers into pb's packed tables.
  BatchPointers batch_pointers(const PackedBatches& pb, std::size_t b) const;
  void record_receivers();
  /// True iff this rank wins the (error, rank) allreduce election for a
  /// point located with error `error_m`. Collective; serial runs own all.
  bool elect_owner(double error_m) const;
  /// Fold per-thread attenuation time into the profile as the nested
  /// AttenuationUpdate phase (called once per step).
  void record_attenuation_time();

  const HexMesh& mesh_;
  const GllBasis& basis_;
  MaterialFields mat_;
  SimulationConfig cfg_;
  smpi::Communicator* comm_;
  const smpi::Exchanger* exchanger_;

  ForceKernel kernel_;

  std::vector<int> solid_elements_;
  std::vector<int> fluid_elements_;

  // Threading (ISSUE 1): per-thread scratch, the pool (null at 1 thread)
  // and the colored element schedules, validated at build time. Solid
  // elements are split into boundary elements (touching a halo point —
  // computed before the exchange starts) and interior elements
  // (overlapped with the exchange); each set carries one schedule per
  // marching rate, a single rate-0 entry at one cluster.
  std::vector<std::unique_ptr<ThreadScratch>> scratch_;
  std::unique_ptr<ThreadPool> pool_;
  SolverSchedule schedule_ = SolverSchedule::Sequential;  ///< resolved
  ClusterSchedule sched_boundary_;
  ClusterSchedule sched_interior_;
  ElementSchedule sched_fluid_;
  // SoA batch packs: one per colored schedule (per rate for the solid
  // sets), plus the legacy-order sequential packs.
  std::vector<PackedBatches> packed_boundary_;
  std::vector<PackedBatches> packed_interior_;
  PackedBatches packed_fluid_;
  PackedBatches packed_seq_solid_;
  PackedBatches packed_seq_fluid_;
  int num_boundary_elements_ = 0;
  bool global_has_fluid_ = false;  ///< fluid anywhere across all ranks

  // Clustered LTS. One cluster is global dt and allocates none
  // of the interface state below.
  int lts_num_levels_ = 1;  ///< global (allreduced) cluster count
  ClusterPartition lts_part_;
  InterfaceSet lts_interp_;
  /// Each point's acceleration at its last due corrector (nglob * 3):
  /// the masked predictor reads it so a slow point's stride uses the
  /// acceleration of its own cluster clock, not a faster cluster's.
  aligned_vector<float> a_pred_;
  /// Stride-start kinematic snapshots at the interface points
  /// (ninterp * 3 each): displ, veloc, accel at the owning cluster's
  /// last stride boundary, the Taylor basis of the interpolation.
  aligned_vector<float> interp_u0_, interp_v0_, interp_a0_;
  /// Completed strides per rate; checkpointed and checked on restore.
  std::vector<std::int64_t> lts_clock_;
  double overlap_compute_seconds_ = 0.0;
  double overlap_wait_seconds_ = 0.0;

  // Observability (ISSUE 3): the per-step phase profile and the running
  // total of per-thread attenuation time already folded into it.
  metrics::StepProfile profile_;
  double att_seconds_reported_ = 0.0;

  // Global fields (nglob * 3 and nglob).
  aligned_vector<float> displ_, veloc_, accel_;
  aligned_vector<float> chi_, chi_dot_, chi_ddot_;
  aligned_vector<float> rmass_inv_solid_;  ///< 1/M, 0 where no solid mass
  aligned_vector<float> rmass_inv_fluid_;

  // Attenuation memory variables: [sls][component 0..4][local solid point]
  // (components xx, yy, xy, xz, yz; zz = -(xx + yy)), plus the per-point
  // factor 2 mu_relaxed * (Q_ref / Q_point).
  std::vector<std::array<aligned_vector<float>, 5>> r_mem_;
  aligned_vector<float> att_factor_;
  double exp_a_[10] = {0};  ///< exp(-dt/tau_l)
  double one_minus_a_[10] = {0};

  // Gravity tables per local point (filled when cfg_.gravity).
  aligned_vector<float> grav_g_, grav_dgdr_, grav_drhodr_;
  aligned_vector<float> grav_rx_, grav_ry_, grav_rz_, grav_invr_;
  aligned_vector<float> w3jac_;  ///< w_i w_j w_k * jacobian per local point

  std::vector<CouplingPoint> coupling_;
  std::vector<AbsorbingPoint> absorbing_;
  std::vector<DiscreteSource> sources_;
  std::vector<ReceiverState> receivers_;

  double time_ = 0.0;
  int it_ = 0;
};

}  // namespace sfg
