// Thread-parallel colored time stepping (ISSUE 1): coloring validity, the
// determinism of the colored schedule across thread counts, comm/compute
// overlap with the split assembly, and the global fluid-participation fix
// for mixed fluid/solid decompositions.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>

#include "mesh/cartesian.hpp"
#include "mesh/coloring.hpp"
#include "mesh/rcm.hpp"
#include "model/attenuation.hpp"
#include "runtime/exchanger.hpp"
#include "solver/simulation.hpp"

namespace sfg {
namespace {

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

CartesianBoxSpec box_spec() {
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = 4;
  spec.lx = spec.ly = spec.lz = 1000.0;
  return spec;
}

PointSource test_source() {
  PointSource src;
  src.x = 320.0;
  src.y = 480.0;
  src.z = 510.0;
  src.force = {1e9, 5e8, 0.0};
  src.stf = ricker_wavelet(14.0, 0.09);
  return src;
}

// ---- coloring ----

TEST(Coloring, GreedyColoringIsValidOnBoxMesh) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  const auto adj = element_adjacency(mesh);

  std::vector<int> natural(static_cast<std::size_t>(mesh.nspec));
  std::iota(natural.begin(), natural.end(), 0);
  const auto colors_nat = greedy_element_coloring(adj, natural);
  EXPECT_TRUE(coloring_is_valid(mesh, colors_nat));
  // Corner-adjacent hexes force >= 8 colors; greedy should stay close.
  EXPECT_GE(num_colors(colors_nat), 8);
  EXPECT_LE(num_colors(colors_nat), 27);

  // Coloring in RCM order is also valid (the order the solver uses).
  const auto rcm = reverse_cuthill_mckee(adj);
  const auto colors_rcm = greedy_element_coloring(adj, rcm);
  EXPECT_TRUE(coloring_is_valid(mesh, colors_rcm));
}

TEST(Coloring, ColoringValidityDetectsClashes) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  // All elements in one color: neighbours share points, must be invalid.
  std::vector<int> all_same(static_cast<std::size_t>(mesh.nspec), 0);
  EXPECT_FALSE(coloring_is_valid(mesh, all_same));
  // Every element its own color: trivially valid.
  std::vector<int> unique_colors(static_cast<std::size_t>(mesh.nspec));
  std::iota(unique_colors.begin(), unique_colors.end(), 0);
  EXPECT_TRUE(coloring_is_valid(mesh, unique_colors));
}

TEST(Coloring, BatchesPartitionAndPreserveOrder) {
  const std::vector<int> color_of = {0, 1, 0, 2, 1, 0};
  const std::vector<int> elements = {5, 0, 2, 4, 3, 1};
  const auto batches = color_batches(elements, color_of);
  ASSERT_EQ(batches.size(), 3u);
  // Relative order of `elements` is preserved inside each color.
  EXPECT_EQ(batches[0], (std::vector<int>{5, 0, 2}));
  EXPECT_EQ(batches[1], (std::vector<int>{4, 1}));
  EXPECT_EQ(batches[2], (std::vector<int>{3}));
}

// ---- threaded determinism ----

struct FinalState {
  aligned_vector<float> displ, veloc;
};

void expect_bit_identical(const FinalState& a, const FinalState& b) {
  ASSERT_EQ(a.displ.size(), b.displ.size());
  for (std::size_t i = 0; i < a.displ.size(); ++i) {
    ASSERT_EQ(a.displ[i], b.displ[i]) << "displ dof " << i;
    ASSERT_EQ(a.veloc[i], b.veloc[i]) << "veloc dof " << i;
  }
}

void expect_close(const FinalState& a, const FinalState& b, double rel_tol) {
  ASSERT_EQ(a.displ.size(), b.displ.size());
  double peak = 0.0;
  for (float v : a.displ) peak = std::max(peak, std::abs(double(v)));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < a.displ.size(); ++i)
    EXPECT_NEAR(a.displ[i], b.displ[i], rel_tol * peak) << "dof " << i;
}

FinalState run_box(int num_threads, SolverSchedule schedule,
                   bool attenuation, int nsteps) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat =
      assign_materials(mesh, [](double, double, double) { return rock(); });
  SimulationConfig cfg;
  cfg.dt = 1.5e-3;
  cfg.num_threads = num_threads;
  cfg.schedule = schedule;
  if (attenuation) {
    SlsSeries sls = fit_constant_q(80.0, 1.0, 20.0, 3);
    prepare_attenuation(mat, sls);
    cfg.attenuation = true;
    cfg.sls = sls;
  }
  Simulation sim(mesh, basis, mat, cfg);
  if (schedule != SolverSchedule::Auto) {
    EXPECT_EQ(sim.active_schedule(), schedule);
  }
  sim.add_source(test_source());
  sim.run(nsteps);
  FinalState fs;
  fs.displ = sim.displ();
  fs.veloc = sim.veloc();
  return fs;
}

TEST(ThreadedSolver, ThreadCountsAreBitIdentical) {
  const int nsteps = 120;
  // The colored schedule fixes the per-point summation order regardless of
  // the thread count: 1 (explicitly colored), 2 and 4 threads must agree
  // to the last bit.
  const FinalState ref = run_box(1, SolverSchedule::Colored, false, nsteps);
  expect_bit_identical(ref, run_box(2, SolverSchedule::Auto, false, nsteps));
  expect_bit_identical(ref, run_box(4, SolverSchedule::Auto, false, nsteps));
}

TEST(ThreadedSolver, ColoredScheduleMatchesLegacySequential) {
  const int nsteps = 120;
  // Colored vs legacy order only changes the per-point float summation
  // order (paper §4.2's loop-order observation) — results agree to
  // roundoff-level tolerance (same class as the parallel-solver checks,
  // accumulated over 120 steps).
  const FinalState seq = run_box(1, SolverSchedule::Sequential, false,
                                 nsteps);
  const FinalState thr = run_box(4, SolverSchedule::Auto, false, nsteps);
  expect_close(seq, thr, 5e-6);
}

TEST(ThreadedSolver, AutoResolvesToColoredWhenThreaded) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat =
      assign_materials(mesh, [](double, double, double) { return rock(); });
  SimulationConfig cfg;
  cfg.dt = 1.5e-3;
  cfg.num_threads = 2;
  Simulation threaded(mesh, basis, mat, cfg);
  EXPECT_EQ(threaded.active_schedule(), SolverSchedule::Colored);

  cfg.num_threads = 1;
  Simulation serial(mesh, basis, mat, cfg);
  EXPECT_EQ(serial.active_schedule(), SolverSchedule::Sequential);
  cfg.schedule = SolverSchedule::Colored;
  Simulation colored(mesh, basis, mat, cfg);
  EXPECT_EQ(colored.active_schedule(), SolverSchedule::Colored);

  // Sequential at >1 threads is a config error.
  cfg.num_threads = 2;
  cfg.schedule = SolverSchedule::Sequential;
  EXPECT_THROW({ Simulation bad(mesh, basis, mat, cfg); }, CheckError);
}

TEST(ThreadedSolver, AllBoundarySliceRunsWithEmptyInteriorSchedule) {
  // A 2x1x1 box cut into two single-element slices: EVERY element touches
  // the halo, so the interior schedule is empty — the overlap window
  // opens and closes with zero elements in between. The run must still
  // complete and match serial.
  CartesianBoxSpec spec;
  spec.nx = 2;
  spec.ny = 1;
  spec.nz = 1;
  spec.lx = spec.ly = spec.lz = 1000.0;
  const double dt = 1.0e-3;
  const int nsteps = 100;
  constexpr double kRecX = 700.0, kRecY = 510.0, kRecZ = 480.0;

  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(spec, basis);
  MaterialFields mat =
      assign_materials(mesh, [](double, double, double) { return rock(); });
  SimulationConfig cfg;
  cfg.dt = dt;
  Simulation serial(mesh, basis, mat, cfg);
  serial.add_source(test_source());
  const int rec = serial.add_receiver(kRecX, kRecY, kRecZ);
  serial.run(nsteps);
  const Seismogram& ref = serial.seismogram(rec);

  Seismogram par;
  smpi::run_ranks(2, [&](smpi::Communicator& comm) {
    GllBasis b(4);
    CartesianSlice slice =
        build_cartesian_slice(spec, b, 2, 1, 1, comm.rank(), 0, 0);
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
      cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    MaterialFields m = assign_materials(
        slice.mesh, [](double, double, double) { return rock(); });
    SimulationConfig c;
    c.dt = dt;
    c.num_threads = 2;
    c.schedule = SolverSchedule::Colored;
    Simulation sim(slice.mesh, b, m, c, &comm, &ex);
    // The single element of each slice is a boundary element.
    EXPECT_EQ(sim.num_boundary_elements(), slice.mesh.nspec);
    if (comm.rank() == 0) sim.add_source(test_source());
    int r = -1;
    if (comm.rank() == 1) r = sim.add_receiver(kRecX, kRecY, kRecZ);
    sim.run(nsteps);
    if (r >= 0) par = sim.seismogram(r);
  });

  ASSERT_EQ(ref.displ.size(), par.displ.size());
  double peak = 0.0;
  for (const auto& u : ref.displ)
    for (double c : u) peak = std::max(peak, std::abs(c));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < ref.displ.size(); ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_NEAR(ref.displ[i][c], par.displ[i][c], 5e-5 * peak)
          << "sample " << i << " comp " << c;
}

TEST(ThreadedSolver, AttenuationThreadedIsDeterministicAndMatchesSequential) {
  const int nsteps = 120;
  const FinalState ref = run_box(1, SolverSchedule::Colored, true, nsteps);
  expect_bit_identical(ref, run_box(2, SolverSchedule::Auto, true, nsteps));
  expect_bit_identical(ref, run_box(4, SolverSchedule::Auto, true, nsteps));
  const FinalState seq = run_box(1, SolverSchedule::Auto, true, nsteps);
  expect_close(seq, run_box(4, SolverSchedule::Auto, true, nsteps), 5e-6);
}

// ---- threaded ranks with comm/compute overlap ----

TEST(ThreadedSolver, RanksWithOverlapMatchSerialSeismogram) {
  const double dt = 1.5e-3;
  const int nsteps = 150;
  constexpr double kRecX = 700.0, kRecY = 510.0, kRecZ = 480.0;

  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat =
      assign_materials(mesh, [](double, double, double) { return rock(); });
  SimulationConfig cfg;
  cfg.dt = dt;
  Simulation serial(mesh, basis, mat, cfg);
  serial.add_source(test_source());
  const int rec = serial.add_receiver(kRecX, kRecY, kRecZ);
  serial.run(nsteps);
  const Seismogram& ref = serial.seismogram(rec);

  Seismogram par;
  int boundary_elems = -1;
  double overlap_compute = -1.0;
  smpi::run_ranks(2, [&](smpi::Communicator& comm) {
    GllBasis b(4);
    CartesianSlice slice =
        build_cartesian_slice(box_spec(), b, 2, 1, 1, comm.rank(), 0, 0);
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
      cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    MaterialFields m = assign_materials(
        slice.mesh, [](double, double, double) { return rock(); });
    SimulationConfig c;
    c.dt = dt;
    c.num_threads = 2;
    Simulation sim(slice.mesh, b, m, c, &comm, &ex);
    if (comm.rank() == 0) sim.add_source(test_source());  // x < 500
    int r = -1;
    if (comm.rank() == 1) r = sim.add_receiver(kRecX, kRecY, kRecZ);
    sim.run(nsteps);
    if (r >= 0) {
      par = sim.seismogram(r);
      boundary_elems = sim.num_boundary_elements();
      overlap_compute = sim.overlap_compute_seconds();
    }
  });

  // Overlap machinery engaged: the rank has a boundary layer and spent
  // measurable time computing interior elements inside the open window.
  EXPECT_GT(boundary_elems, 0);
  EXPECT_LT(boundary_elems, 4 * 4 * 2);  // not everything is boundary
  EXPECT_GT(overlap_compute, 0.0);

  ASSERT_EQ(ref.displ.size(), par.displ.size());
  double peak = 0.0;
  for (const auto& u : ref.displ)
    for (double c : u) peak = std::max(peak, std::abs(c));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < ref.displ.size(); ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_NEAR(ref.displ[i][c], par.displ[i][c], 5e-5 * peak)
          << "sample " << i << " comp " << c;
}

// ---- global fluid participation (the build_mass_matrices guard fix) ----

TEST(ThreadedSolver, MixedFluidSolidDecompositionMatchesSerial) {
  // Fluid layer in the bottom quarter of the box (so the coupling surface
  // is interior to rank 0), decomposed along z so rank 1 holds NO fluid
  // elements. Before the global_has_fluid fix, the fluid assembly ran on
  // one rank but not the other (the `|| true` hack papered over it for the
  // mass matrix only) — this run would mismatch or hang.
  const double dt = 1.0e-3;
  const int nsteps = 150;
  auto material_at = [](double, double, double z) {
    return z < 250.0 ? water() : rock();
  };
  PointSource src;
  src.x = 480.0;
  src.y = 520.0;
  src.z = 760.0;  // solid upper half
  src.force = {0.0, 0.0, 1e9};
  src.stf = ricker_wavelet(10.0, 0.12);
  constexpr double kRecX = 520.0, kRecY = 480.0, kRecZ = 810.0;

  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(mesh, material_at);
  SimulationConfig cfg;
  cfg.dt = dt;
  Simulation serial(mesh, basis, mat, cfg);
  EXPECT_GT(serial.num_fluid_elements(), 0);
  serial.add_source(src);
  const int rec = serial.add_receiver(kRecX, kRecY, kRecZ);
  serial.run(nsteps);
  const Seismogram& ref = serial.seismogram(rec);

  Seismogram par;
  smpi::run_ranks(2, [&](smpi::Communicator& comm) {
    GllBasis b(4);
    CartesianSlice slice =
        build_cartesian_slice(box_spec(), b, 1, 1, 2, 0, 0, comm.rank());
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
      cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    MaterialFields m = assign_materials(slice.mesh, material_at);
    SimulationConfig c;
    c.dt = dt;
    Simulation sim(slice.mesh, b, m, c, &comm, &ex);
    if (comm.rank() == 1) {
      EXPECT_EQ(sim.num_fluid_elements(), 0);  // the all-solid slice
      sim.add_source(src);
      const int r = sim.add_receiver(kRecX, kRecY, kRecZ);
      sim.run(nsteps);
      par = sim.seismogram(r);
    } else {
      EXPECT_GT(sim.num_fluid_elements(), 0);
      sim.run(nsteps);
    }
  });

  ASSERT_EQ(ref.displ.size(), par.displ.size());
  double peak = 0.0;
  for (const auto& u : ref.displ)
    for (double c : u) peak = std::max(peak, std::abs(c));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < ref.displ.size(); ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_NEAR(ref.displ[i][c], par.displ[i][c], 5e-5 * peak)
          << "sample " << i << " comp " << c;
}

// ---- split exchanger API ----

TEST(ThreadedSolver, SplitAssembleMatchesBlocking) {
  smpi::run_ranks(2, [&](smpi::Communicator& comm) {
    // Two ranks sharing points 0..4 (keys 100..104).
    std::vector<smpi::PointCandidate> cands;
    for (int i = 0; i < 5; ++i) cands.push_back({100 + i, i});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);

    std::vector<float> blocking(10), split(10);
    for (int i = 0; i < 10; ++i)
      blocking[static_cast<std::size_t>(i)] =
          split[static_cast<std::size_t>(i)] =
              static_cast<float>((comm.rank() + 1) * (i + 1));
    ex.assemble_add(comm, blocking.data(), 2);

    ex.assemble_add_begin(comm, split.data(), 2);
    // Non-shared state may be touched while the exchange is in flight.
    ex.assemble_add_end(comm);
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(blocking[static_cast<std::size_t>(i)],
                split[static_cast<std::size_t>(i)])
          << "dof " << i;
  });
}

}  // namespace
}  // namespace sfg
