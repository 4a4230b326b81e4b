// globe_1t: the golden NEX=8 PREM globe (tests/golden) on one solver
// thread, marched in 150-step "golden jobs". Every job restores the step-0
// checkpoint, marches the golden's 150 steps and checks its seismogram
// against the committed reference, so every run measures the same steps and
// checks every one of them. The traced run adds one golden job on
// kPoolThreads solver threads for the thread-pool layer.

#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>

#include "common/constants.hpp"
#include "layerbench.hpp"
#include "mesh/quality.hpp"
#include "model/earth_model.hpp"
#include "service/loadgen.hpp"
#include "sphere/mesher.hpp"

namespace layerbench {

namespace {

using sfg::metrics::Phase;

constexpr int kNex = 8;
constexpr int kJobSteps = 150;  ///< the golden seismogram's length
constexpr int kSetupReps = 9;
/// Solver threads of the traced run's pool job (Auto: Interleaved). It is
/// not timed end to end: every schedule round wakes the pool, and on a
/// shared VM a woken vCPU waits for the hypervisor, so its step time
/// follows other tenants more than the code.
constexpr int kPoolThreads = 4;

/// One built globe. The Simulation views its mesh, so the slice must
/// outlive it (and a twin Simulation may view another globe's slice).
struct Globe {
  std::unique_ptr<sfg::GlobeSlice> slice;  ///< null for a twin
  std::unique_ptr<sfg::Simulation> sim;
  int receiver = -1;
  double epoch_s = 0.0;  ///< benchmark clock at Simulation construction
};

struct SetupTimes {
  double mesh_s = 0.0, construct_s = 0.0, total_s = 0.0;
};

sfg::SimulationConfig solver_config(double dt, int threads, bool traced) {
  sfg::SimulationConfig cfg;
  cfg.dt = dt;
  cfg.num_threads = threads;
  cfg.metrics.enabled = traced;
  cfg.metrics.timeline = traced;
  return cfg;
}

/// The Simulation of tests/test_golden_seismogram.cpp on `slice`: one
/// shallow moment-tensor source and one interpolated receiver. The caller
/// keeps `slice` alive for the Simulation's lifetime.
Globe construct(const sfg::GlobeSlice& slice, const sfg::GllBasis& basis,
                double dt, int threads, bool traced, Tracer& tr) {
  Globe g;
  g.epoch_s = tr.now();
  g.sim = std::make_unique<sfg::Simulation>(
      slice.mesh, basis, slice.materials, solver_config(dt, threads, traced));
  sfg::PointSource src;
  src.z = sfg::kEarthRadiusM - 300e3;
  src.moment = {1e20, -5e19, -5e19, 3e19, 0.0, 2e19};
  src.stf = sfg::ricker_wavelet(1.0 / 20.0, 40.0);
  g.sim->add_source(src);
  g.receiver = g.sim->add_receiver(0.0,
                                   sfg::kEarthRadiusM * std::sin(0.05),
                                   sfg::kEarthRadiusM * std::cos(0.05));
  return g;
}

/// Mesher, quality analysis, Simulation construction, source and receiver
/// location — the set-up a user pays before the first step.
Globe set_up(const sfg::GllBasis& basis, const sfg::PremModel& prem,
             int threads, bool traced, Tracer& tr, SetupTimes* t,
             double* dt_out) {
  const double t0 = tr.now();
  const int root = tr.add("setup", t0, t0);
  sfg::GlobeMeshSpec spec;
  spec.nex_xi = kNex;
  spec.nchunks = 6;
  spec.model = &prem;
  auto slice =
      std::make_unique<sfg::GlobeSlice>(sfg::build_globe_serial(spec, basis));
  const double t1 = tr.now();
  tr.add("sphere.build_globe_serial", t0, t1, root);
  const auto q = sfg::analyze_mesh_quality(
      slice->mesh, slice->materials.vp, slice->materials.vs);
  const double t2 = tr.now();
  tr.add("mesh.analyze_mesh_quality", t1, t2, root);
  *dt_out = 0.8 * q.dt_stable;
  Globe g = construct(*slice, basis, *dt_out, threads, traced, tr);
  g.slice = std::move(slice);
  const double t3 = tr.now();
  tr.add("solver.construct_and_locate", t2, t3, root);
  tr.end(root, t3);
  t->mesh_s = t1 - t0;
  t->construct_s = t3 - t2;
  t->total_s = t3 - t0;
  return g;
}

/// Computed bytes the streaming sweeps move per step (4-byte floats, no
/// write-allocate): the predictor reads and writes displ/veloc/accel
/// (chi/chi_dot/chi_ddot in the fluid), the corrector reads veloc and accel
/// and writes veloc, the mass update reads accel and 1/M and writes accel.
double stream_bytes_per_step(const sfg::Simulation& sim) {
  const double ng = sim.nglob();
  const bool fluid = sim.num_fluid_elements() > 0;
  const double predictor = 6 * 3 * ng * 4 + (fluid ? 6 * ng * 4 : 0.0);
  const double corrector = 3 * 3 * ng * 4 + (fluid ? 3 * ng * 4 : 0.0);
  const double mass = 7 * ng * 4 + (fluid ? 3 * ng * 4 : 0.0);
  return predictor + corrector + mass;
}

/// Mean and least pool-thread busy time as shares of the parallel span
/// (both 0 without a pool).
std::pair<double, double> pool_busy(const sfg::Simulation& sim) {
  const sfg::metrics::RunReport report = sim.metrics_report();
  const auto& b = report.thread_busy_seconds;
  if (b.size() < 2 || report.thread_span_seconds <= 0.0) return {0.0, 0.0};
  return {std::accumulate(b.begin(), b.end(), 0.0) /
              static_cast<double>(b.size()) / report.thread_span_seconds,
          *std::min_element(b.begin(), b.end()) / report.thread_span_seconds};
}

}  // namespace

RunResult run_globe(const Options& o, Tracer& tr) {
  constexpr int threads = 1;
  namespace fs = std::filesystem;
  RunResult res;
  const sfg::Seismogram golden =
      read_golden(o.repo_root + "/tests/golden/globe_nex8_seismogram.txt");
  const std::string work = o.out_dir + "/" + o.workload + "_work";
  fs::remove_all(work);
  fs::create_directories(work);

  const sfg::PremModel prem;
  const sfg::GllBasis basis(4);

  // Set-up, repeated; the last repetition's globe is the one marched.
  std::vector<double> setup_s, mesh_s, construct_s;
  Globe traced_globe;
  double dt = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    traced_globe = Globe{};  // release the previous repetition first
    // Thrown-away repetitions run one per CPU; the kept one runs unpinned.
    std::optional<CpuPin> pin;
    if (rep + 1 < kSetupReps) pin.emplace(rep);
    SetupTimes t;
    traced_globe = set_up(basis, prem, threads, o.trace, tr, &t, &dt);
    setup_s.push_back(t.total_s);
    mesh_s.push_back(t.mesh_s);
    construct_s.push_back(t.construct_s);
  }

  // In the traced run an untraced twin over the same mesh measures the
  // tracing overhead. Jobs alternate: the traced globe alone (its profile
  // gives the per-layer numbers), then both in lockstep, so every traced
  // step is paired with the same untraced step, run just before it.
  Globe plain_globe;
  std::vector<Globe*> globes{&traced_globe};
  if (o.trace) {
    plain_globe =
        construct(*traced_globe.slice, basis, dt, threads, false, tr);
    globes = {&traced_globe, &plain_globe};
  }

  sfg::io::SnapshotIdentity identity;
  identity.nex = kNex;
  identity.nproc = 1;
  identity.nchunks = 6;
  auto checkpoint = [&](std::size_t g) {
    return work + "/step0_" + std::to_string(g);
  };
  for (std::size_t g = 0; g < globes.size(); ++g)
    globes[g]->sim->write_checkpoint(checkpoint(g), identity);

  // Step times of the solo jobs, and of the lockstep jobs per globe: every
  // job replays the same steps.
  std::vector<std::vector<double>> solo_steps, paired_steps[2];
  std::vector<double> job_ms;
  std::array<double, sfg::metrics::kNumPhases> phase_s{};
  double traced_wall_s = 0.0;
  int traced_steps = 0;
  const double window0 = tr.now();
  for (int job = 0; job < static_cast<int>(globes.size()) ||
                    tr.now() - window0 < o.seconds;
       ++job) {
    const bool paired = o.trace && job % 2 == 1;
    const std::size_t nglobes = paired ? 2 : 1;
    const double j0 = tr.now();
    const int job_span =
        tr.add(paired ? "golden_job.lockstep" : "golden_job", j0, j0, -1, job);
    for (std::size_t g = 0; g < nglobes; ++g) {
      globes[g]->sim->restore_checkpoint(checkpoint(g), identity);
      (paired ? paired_steps[g] : solo_steps).emplace_back();
    }
    tr.add("io.restore_checkpoint", j0, tr.now(), job_span, job);
    for (int s = 0; s < kJobSteps; ++s)
      for (std::size_t g = nglobes; g-- > 0;) {  // untraced twin first
        const double s0 = tr.now();
        globes[g]->sim->step();
        const double s1 = tr.now();
        (paired ? paired_steps[g] : solo_steps).back().push_back((s1 - s0) *
                                                                  1e3);
        if (g == 0) tr.add("solver.step", s0, s1, job_span, job);
      }
    const double c0 = tr.now();
    for (std::size_t g = 0; g < nglobes; ++g) {
      const std::string err = check_seismogram(
          golden, globes[g]->sim->seismogram(globes[g]->receiver), kJobSteps);
      ++res.attempted;
      if (!err.empty()) {
        ++res.failed;
        res.check(o.workload + " golden job " + std::to_string(job) + ": " +
                  err);
      }
    }
    const double j1 = tr.now();
    tr.add("check.seismogram", c0, j1, job_span, job);
    tr.end(job_span, j1);
    if (paired) continue;
    job_ms.push_back((j1 - j0) * 1e3);
    if (o.trace) {
      // restore_checkpoint resets the profile to the step-0 counters, so
      // fold each solo job's phases in before the next restore.
      const sfg::metrics::StepProfile& p = traced_globe.sim->step_profile();
      for (int ph = 0; ph < sfg::metrics::kNumPhases; ++ph)
        phase_s[static_cast<std::size_t>(ph)] +=
            p.phase_seconds()[static_cast<std::size_t>(ph)];
      traced_wall_s += p.total_wall_seconds();
      traced_steps += p.steps();
    }
  }

  // The typical golden job: each step's median over the solo jobs. Its
  // steps differ by design (denormals spread with the wavefront), so
  // step_ms is their mean: the typical job's wall time per step.
  const std::vector<double> step_ms = typical_replay(solo_steps);
  describe_timing(std::cerr, "typical job step_ms", step_ms, "ms");
  describe_timing(std::cerr, "golden job latency", job_ms, "ms");
  describe_timing(std::cerr, "setup_s", setup_s, "s");

  if (!o.trace) {
    res.add("setup_s", median(setup_s), "s");
    res.add("step_ms", mean(step_ms), "ms");
    res.add("step_ms_p95", sfg::service::percentile(step_ms, 95.0), "ms");
    res.add("latency_p50_ms", median(job_ms), "ms");
    res.add("latency_p95_ms", sfg::service::percentile(job_ms, 95.0), "ms");
    res.add("jobs_per_min",
            60.0e3 * static_cast<double>(job_ms.size()) /
                std::accumulate(job_ms.begin(), job_ms.end(), 0.0),
            "1/min");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const sfg::Simulation& sim = *traced_globe.sim;
    tr.merge_solver_timeline(sim.metrics_timeline(), traced_globe.epoch_s, 1);
    const double n = std::max(1, traced_steps);
    auto per_step_ms = [&](std::initializer_list<Phase> phases) {
      double s = 0.0;
      for (Phase p : phases) s += phase_s[static_cast<std::size_t>(p)];
      return s / n * 1e3;
    };
    const double wall_ms = traced_wall_s / n * 1e3;
    const double predictor = per_step_ms({Phase::NewmarkPredictor});
    const double corrector = per_step_ms({Phase::NewmarkCorrector});
    const double mass = per_step_ms({Phase::MassUpdate});
    const double solid = per_step_ms(
        {Phase::SolidForces, Phase::SolidBoundary, Phase::SolidInterior});
    const double fluid = per_step_ms({Phase::FluidForces});
    const double source = per_step_ms({Phase::SourceInjection});
    const double record = per_step_ms({Phase::SeismogramRecord});
    // Everything the named phases leave out (halo phases, which are empty
    // on one rank, and the loop itself), so the named phases plus this sum
    // to the step wall time exactly.
    const double unaccounted =
        wall_ms - (predictor + corrector + mass + solid + fluid + source +
                   record);
    double top_level_ms = 0.0;
    for (int ph = 0; ph < sfg::metrics::kNumPhases; ++ph)
      if (!sfg::metrics::phase_is_nested(static_cast<Phase>(ph)))
        top_level_ms += phase_s[static_cast<std::size_t>(ph)] / n * 1e3;
    if (top_level_ms > 1.02 * wall_ms)
      res.check(o.workload + ": top-level phases sum to " +
                std::to_string(top_level_ms) + " ms > step wall " +
                std::to_string(wall_ms) + " ms");

    // The pool job: a fresh kPoolThreads globe over the same mesh marches
    // one golden job from step 0, traced and checked like the others.
    Globe pool_globe =
        construct(*traced_globe.slice, basis, dt, kPoolThreads, true, tr);
    const int pool_job = static_cast<int>(solo_steps.size() +
                                          paired_steps[0].size());
    const double p0 = tr.now();
    const int pool_span = tr.add("golden_job.pool", p0, p0, -1, pool_job);
    for (int s = 0; s < kJobSteps; ++s) {
      const double s0 = tr.now();
      pool_globe.sim->step();
      tr.add("solver.step", s0, tr.now(), pool_span, pool_job);
    }
    ++res.attempted;
    const std::string pool_err = check_seismogram(
        golden, pool_globe.sim->seismogram(pool_globe.receiver), kJobSteps);
    if (!pool_err.empty()) {
      ++res.failed;
      res.check(o.workload + " pool job on " + std::to_string(kPoolThreads) +
                " threads: " + pool_err);
    }
    tr.end(pool_span, tr.now());
    const sfg::metrics::StepProfile& pp = pool_globe.sim->step_profile();
    const double pool_steps = std::max(1, pp.steps());
    const auto [busy_mean, busy_min] = pool_busy(*pool_globe.sim);
    tr.merge_solver_timeline(pool_globe.sim->metrics_timeline(),
                             pool_globe.epoch_s, 3);
    pool_globe = Globe{};

    res.add("sphere.mesh_build_s", median(mesh_s), "s");
    res.add("solver.construct_s", median(construct_s), "s");
    res.add("solver.predictor_ms", predictor, "ms");
    res.add("solver.corrector_ms", corrector, "ms");
    res.add("solver.mass_ms", mass, "ms");
    res.add("solver.stream_gbps",
            stream_bytes_per_step(sim) / ((predictor + corrector + mass) * 1e-3) /
                1e9,
            "GB/s");
    res.add("solver.solid_ms", solid, "ms");
    res.add("kernels.solid_elems_per_s",
            sim.num_solid_elements() / (solid * 1e-3), "1/s");
    res.add("solver.gflops",
            static_cast<double>(sim.flops_per_step()) / (wall_ms * 1e-3) / 1e9,
            "GFLOP/s");
    res.add("solver.fluid_ms", fluid, "ms");
    res.add("solver.source_ms", source, "ms");
    res.add("solver.record_ms", record, "ms");
    res.add("solver.unaccounted_ms", unaccounted, "ms");
    res.add("solver.step_wall_ms", wall_ms, "ms");
    res.add("pool.step_wall_ms", pp.total_wall_seconds() / pool_steps * 1e3,
            "ms");
    res.add("pool.fluid_ms",
            pp.phase_seconds()[static_cast<std::size_t>(Phase::FluidForces)] /
                pool_steps * 1e3,
            "ms");
    res.add("pool.busy_mean_frac", busy_mean, "fraction");
    res.add("pool.busy_min_frac", busy_min, "fraction");
    // Paired by step index: each traced step over its untraced twin.
    const std::vector<double> traced_ms = typical_replay(paired_steps[0]);
    const std::vector<double> plain_ms = typical_replay(paired_steps[1]);
    std::vector<double> ratio;
    for (std::size_t k = 0; k < traced_ms.size(); ++k)
      ratio.push_back(traced_ms[k] / plain_ms[k]);
    res.add("trace_overhead_pct", 100.0 * (median(ratio) - 1.0), "%");
  }
  plain_globe = Globe{};
  traced_globe = Globe{};
  fs::remove_all(work);
  return res;
}

}  // namespace layerbench
