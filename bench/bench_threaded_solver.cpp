// Thread-parallel colored time stepping: sweep the on-node thread count
// on a fixed mesh and report per-step time, speedup and parallel
// efficiency of the colored schedule, its 1-thread schedule tax relative
// to the legacy sequential loop, and the comm/compute overlap fraction of
// a decomposed run.
//
// The paper runs pure MPI (one core per rank, §3); on-node threading is
// the natural extension for multicore nodes, with the same invariant the
// paper demands of loop-order changes (§4.2): synthetic seismograms are
// unchanged. Speedup numbers only mean something on a machine with that
// many physical cores — on fewer cores the sweep still validates the
// schedule and reports honest (oversubscribed) timings.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/exchanger.hpp"

using namespace sfg;

namespace {

/// Per-step wall time of `steps` solver steps with a given thread count
/// and schedule variant.
double time_steps(bench::GlobeSetup& setup, int num_threads,
                  SolverSchedule schedule, int steps) {
  SimulationConfig cfg;
  cfg.num_threads = num_threads;
  cfg.schedule = schedule;
  Simulation sim = setup.make_simulation(cfg);
  sim.run(2);  // warm up
  return bench::time_best_of(3, [&] { sim.run(steps); }) / steps;
}

/// --json <path> (scripts/bench.sh): end-to-end 1-thread per-step wall
/// time of the full solver — gather, batched kernel, scatter, Newmark
/// updates — under the Sequential and Colored schedules (their ratio is
/// the 1-thread schedule tax), written as a JSON fragment. Skips the
/// interactive sweep.
int run_json_mode(const std::string& path) {
  bench::GlobeSetup setup(8);
  const int steps = 6;
  const double seq = time_steps(setup, 1, SolverSchedule::Sequential, steps);
  const double col = time_steps(setup, 1, SolverSchedule::Colored, steps);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"mesh_elements\": %d,\n"
               "  \"per_step_ms\": {\n"
               "    \"sequential_batched\": %.6g,\n"
               "    \"colored_batched\": %.6g\n"
               "  }\n"
               "}\n",
               setup.globe.mesh.nspec, 1e3 * seq, 1e3 * col);
  std::fclose(f);
  std::printf("wrote %s (1-thread schedule tax of colored vs sequential: "
              "%+.2f%%)\n",
              path.c_str(), 100.0 * (col / seq - 1.0));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return run_json_mode(argv[i + 1]);
  bench::banner(
      "Thread-parallel colored time stepping",
      "the colored element schedule keeps seismograms bit-identical across "
      "thread counts while the halo exchange overlaps interior compute");

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Hardware concurrency: %u core(s)\n", hw);

  bench::GlobeSetup setup(8);
  std::printf("Mesh: %d elements, %d global points\n", setup.globe.mesh.nspec,
              setup.globe.mesh.nglob);

  const int steps = 6;
  const double t_legacy =
      time_steps(setup, 1, SolverSchedule::Sequential, steps);
  const double t_colored1 = time_steps(setup, 1, SolverSchedule::Colored, steps);

  AsciiTable sweep("Thread sweep (serial NEX=8 globe, per-step wall time)");
  sweep.set_header({"threads", "schedule", "ms/step", "speedup",
                    "efficiency"});
  sweep.add_row({"1", "legacy", fmt_g(1e3 * t_legacy, 4), "1.00", "-"});
  sweep.add_row({"1", "colored", fmt_g(1e3 * t_colored1, 4),
                 fmt_g(t_legacy / t_colored1, 3),
                 fmt_g(t_legacy / t_colored1, 3)});
  for (int nt : {2, 4, 8}) {
    const double tc = time_steps(setup, nt, SolverSchedule::Colored, steps);
    sweep.add_row({fmt_g(nt, 1), "colored", fmt_g(1e3 * tc, 4),
                   fmt_g(t_legacy / tc, 3), fmt_g(t_legacy / tc / nt, 3)});
  }
  sweep.print();

  // Within one color no two elements share a point, so the color-major
  // traversal reuses less of the gathered/scattered data than the legacy
  // loop; Auto therefore keeps the legacy loop at one thread.
  std::printf("1-thread schedule tax of colored vs legacy sequential: "
              "%+.2f%%\n",
              100.0 * (t_colored1 / t_legacy - 1.0));
  if (hw < 8)
    std::printf(
        "NOTE: only %u core(s) available — thread counts above that are "
        "oversubscribed and cannot speed up.\n",
        hw);

  // ---- comm/compute overlap on a 6-rank decomposition ----
  // smpi ranks are threads themselves, so keep the solver single-threaded
  // (colored schedule, 1 slot) and measure how much of the
  // halo-exchange window the interior-element compute fills.
  GlobeMeshSpec spec;
  static PremModel prem;
  spec.nex_xi = 8;
  spec.nproc_xi = 1;
  spec.nchunks = 6;
  spec.model = &prem;
  double compute_s = 0.0, wait_s = 0.0;
  int boundary = 0, interior = 0;
  smpi::run_ranks(globe_rank_count(spec), [&](smpi::Communicator& comm) {
    GllBasis b(4);
    GlobeSlice slice = build_globe_slice(spec, b, comm.rank());
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t i = 0; i < slice.boundary_keys.size(); ++i)
      cands.push_back({slice.boundary_keys[i], slice.boundary_points[i]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    auto q = analyze_mesh_quality(slice.mesh, slice.materials.vp,
                                  slice.materials.vs);
    SimulationConfig cfg;
    cfg.dt = 0.8 * q.dt_stable;
    cfg.schedule = SolverSchedule::Colored;
    Simulation sim(slice.mesh, b, slice.materials, cfg, &comm, &ex);
    sim.run(12);
    if (comm.rank() == 0) {
      compute_s = sim.overlap_compute_seconds();
      wait_s = sim.overlap_wait_seconds();
      boundary = sim.num_boundary_elements();
      interior = sim.num_solid_elements() - boundary;
    }
  });

  AsciiTable ov("Comm/compute overlap (6-chunk NEX=8 globe, rank 0)");
  ov.set_header({"quantity", "value"});
  ov.add_row({"boundary elements", fmt_g(boundary, 6)});
  ov.add_row({"interior elements", fmt_g(interior, 6)});
  ov.add_row({"interior compute in window (ms)", fmt_g(1e3 * compute_s, 4)});
  ov.add_row({"residual exchange wait (ms)", fmt_g(1e3 * wait_s, 4)});
  ov.add_row({"overlap fraction",
              fmt_g(compute_s / (compute_s + wait_s), 3)});
  ov.print();
  std::printf(
      "Overlap fraction = interior compute / (interior compute + residual "
      "wait) inside the open exchange window.\n");
  return 0;
}
