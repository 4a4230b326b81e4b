// Golden-seismogram regression (ISSUE 2): a committed NEX=8 PREM-globe
// reference seismogram pins the physics. Any kernel, scheduling or mesher
// change that alters the computed wavefield beyond float roundoff fails
// this test — silent physics drift is the one regression a unit test
// cannot catch.
//
// ISSUE 4 extends the gate to a MATRIX: the same committed references must
// be reproduced by the threaded colored schedule (2 and 4 threads) on the
// globe, and — on a second mixed fluid/solid box golden — by every
// {threads} x {ranks} x {schedule} combination, all within the same
// 5e-6 * peak float-roundoff tolerance.
//
// Regenerating (only when a change is *supposed* to alter the physics):
//   SFG_REGEN_GOLDEN=1 ./test_golden_seismogram
// writes the new references into the source tree (tests/golden/), then
// rerun without the variable and commit the diff. See docs/testing.md.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "mesh/cartesian.hpp"
#include "mesh/quality.hpp"
#include "runtime/exchanger.hpp"
#include "solver/simulation.hpp"
#include "sphere/mesher.hpp"

#ifndef SFG_GOLDEN_DIR
#error "SFG_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace sfg {
namespace {

constexpr int kNex = 8;
constexpr int kSteps = 150;

/// Small but full-stack run: 6-chunk cubed sphere, PREM (so the fluid
/// outer core and solid-fluid coupling are in the loop), a shallow
/// moment-tensor source and one interpolated receiver. The step count is
/// fixed — goldens are defined by (mesh, dt rule, source, steps), not by
/// simulated time.
Seismogram compute_seismogram(int num_threads = 1,
                              SolverSchedule schedule =
                                  SolverSchedule::Auto) {
  PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = kNex;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);
  GlobeSlice globe = build_globe_serial(spec, basis);

  const auto q = analyze_mesh_quality(globe.mesh, globe.materials.vp,
                                      globe.materials.vs);
  SimulationConfig cfg;
  cfg.dt = 0.8 * q.dt_stable;
  cfg.num_threads = num_threads;
  cfg.schedule = schedule;

  Simulation sim(globe.mesh, basis, globe.materials, cfg);
  PointSource src;
  src.x = 0.0;
  src.y = 0.0;
  src.z = kEarthRadiusM - 300e3;
  src.moment = {1e20, -5e19, -5e19, 3e19, 0.0, 2e19};
  // Fast wavelet and a nearby station so real signal (not numerical
  // noise) fills the short fixed-step window. NEX=8 under-resolves a
  // 20 s period — irrelevant here: the golden pins numerics, not
  // physical accuracy.
  src.stf = ricker_wavelet(1.0 / 20.0, 40.0);
  sim.add_source(src);
  const int rec = sim.add_receiver(0.0, kEarthRadiusM * std::sin(0.05),
                                   kEarthRadiusM * std::cos(0.05));
  sim.run(kSteps);
  return sim.seismogram(rec);
}

std::string golden_path() {
  return std::string(SFG_GOLDEN_DIR) + "/globe_nex8_seismogram.txt";
}

std::string box_golden_path() {
  return std::string(SFG_GOLDEN_DIR) + "/box_mixed_seismogram.txt";
}

void write_golden(const std::string& path, const Seismogram& s,
                  const std::string& header) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# " << header << "\n"
      << "# time ux uy uz\n";
  out.precision(17);  // full double round-trip
  out << std::scientific;
  for (std::size_t i = 0; i < s.time.size(); ++i)
    out << s.time[i] << ' ' << s.displ[i][0] << ' ' << s.displ[i][1] << ' '
        << s.displ[i][2] << '\n';
  ASSERT_TRUE(out.good()) << "write to " << path << " failed";
}

Seismogram read_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good())
      << "missing golden file " << path
      << " — run SFG_REGEN_GOLDEN=1 ./test_golden_seismogram to create it";
  Seismogram s;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    double t, ux, uy, uz;
    ls >> t >> ux >> uy >> uz;
    EXPECT_FALSE(ls.fail()) << "malformed golden line: " << line;
    s.time.push_back(t);
    s.displ.push_back({ux, uy, uz});
  }
  return s;
}

// Tolerance: float-roundoff headroom (reordered sums between schedule
// variants / decompositions) but far below any physical change. A
// deliberately perturbed kernel moves samples by orders of magnitude more.
void expect_matches_golden(const Seismogram& ref, const Seismogram& got,
                           const std::string& leg) {
  ASSERT_EQ(ref.time.size(), got.time.size()) << leg;
  double peak = 0.0;
  for (const auto& u : ref.displ)
    for (double c : u) peak = std::max(peak, std::abs(c));
  ASSERT_GT(peak, 0.0) << "golden reference is all zeros";
  const double tol = 5e-6 * peak;
  for (std::size_t i = 0; i < ref.time.size(); ++i) {
    ASSERT_NEAR(ref.time[i], got.time[i], 1e-12 * ref.time.back())
        << leg << ": time axis changed at sample " << i
        << " (dt rule drifted?)";
    for (int c = 0; c < 3; ++c)
      ASSERT_NEAR(ref.displ[i][c], got.displ[i][c], tol)
          << leg << ": sample " << i << " component " << c
          << " deviates from the committed reference; if this change is "
             "intended, regenerate per docs/testing.md";
  }
}

TEST(GoldenSeismogram, MatchesCommittedReference) {
  const Seismogram got = compute_seismogram();
  ASSERT_EQ(got.time.size(), static_cast<std::size_t>(kSteps));

  if (std::getenv("SFG_REGEN_GOLDEN") != nullptr) {
    write_golden(golden_path(), got,
                 "golden seismogram: NEX=" + std::to_string(kNex) +
                     " 6-chunk PREM globe, " + std::to_string(kSteps) +
                     " steps, dt = 0.8 * dt_stable");
    GTEST_SKIP() << "regenerated " << golden_path()
                 << "; rerun without SFG_REGEN_GOLDEN to verify";
  }

  const Seismogram ref = read_golden(golden_path());
  expect_matches_golden(ref, got, "serial sequential");
}

// ---- matrix leg 1: threaded colored schedule on the globe golden ----

TEST(GoldenSeismogram, ThreadedColoredMatchesReference) {
  if (std::getenv("SFG_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regeneration runs the serial reference only";
  const Seismogram ref = read_golden(golden_path());
  for (int threads : {2, 4}) {
    const Seismogram got =
        compute_seismogram(threads, SolverSchedule::Colored);
    expect_matches_golden(
        ref, got, "globe colored x " + std::to_string(threads) + "T");
  }
}

// ---- matrix leg 2: mixed fluid/solid box across threads x ranks ----

constexpr double kBoxDt = 1.0e-3;
constexpr int kBoxSteps = 150;

CartesianBoxSpec mixed_box_spec() {
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = 4;
  spec.lx = spec.ly = spec.lz = 1000.0;
  return spec;
}

MaterialSample box_material(double, double, double z) {
  MaterialSample s;
  if (z < 250.0) {  // water layer at the bottom: fluid elements in play
    s.rho = 1000.0;
    s.vp = 1500.0;
    s.vs = 0.0;
    s.q_mu = 0.0;
  } else {
    s.rho = 2500.0;
    s.vp = 3000.0;
    s.vs = 1800.0;
    s.q_mu = 80.0;
  }
  return s;
}

PointSource box_source() {
  PointSource src;
  src.x = 480.0;
  src.y = 520.0;
  src.z = 760.0;  // solid upper half
  src.force = {0.0, 0.0, 1e9};
  src.stf = ricker_wavelet(10.0, 0.12);
  return src;
}

constexpr double kBoxRecX = 520.0, kBoxRecY = 480.0, kBoxRecZ = 810.0;

Seismogram compute_box_serial(int num_threads, SolverSchedule schedule) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(mixed_box_spec(), basis);
  MaterialFields mat = assign_materials(mesh, box_material);
  SimulationConfig cfg;
  cfg.dt = kBoxDt;
  cfg.num_threads = num_threads;
  cfg.schedule = schedule;
  Simulation sim(mesh, basis, mat, cfg);
  EXPECT_GT(sim.num_fluid_elements(), 0);
  sim.add_source(box_source());
  const int rec = sim.add_receiver(kBoxRecX, kBoxRecY, kBoxRecZ);
  sim.run(kBoxSteps);
  return sim.seismogram(rec);
}

/// Two-rank leg (z-split: rank 1 is all solid), collective source /
/// receiver registration, per-rank thread pools.
Seismogram compute_box_two_ranks(int num_threads, SolverSchedule schedule) {
  Seismogram out;
  smpi::run_ranks(2, [&](smpi::Communicator& comm) {
    GllBasis basis(4);
    CartesianSlice slice = build_cartesian_slice(mixed_box_spec(), basis, 1,
                                                 1, 2, 0, 0, comm.rank());
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
      cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    MaterialFields mat = assign_materials(slice.mesh, box_material);
    SimulationConfig cfg;
    cfg.dt = kBoxDt;
    cfg.num_threads = num_threads;
    cfg.schedule = schedule;
    Simulation sim(slice.mesh, basis, mat, cfg, &comm, &ex);
    sim.add_source_global(box_source());
    const int rec =
        sim.add_receiver_global(kBoxRecX, kBoxRecY, kBoxRecZ);
    sim.run(kBoxSteps);
    if (rec >= 0) out = sim.seismogram(rec);
  });
  EXPECT_EQ(out.time.size(), static_cast<std::size_t>(kBoxSteps));
  return out;
}

TEST(GoldenSeismogram, BoxMatrixMatchesCommittedReference) {
  const Seismogram serial =
      compute_box_serial(1, SolverSchedule::Sequential);
  ASSERT_EQ(serial.time.size(), static_cast<std::size_t>(kBoxSteps));

  if (std::getenv("SFG_REGEN_GOLDEN") != nullptr) {
    write_golden(box_golden_path(), serial,
                 "golden seismogram: 4^3 mixed fluid/solid box, " +
                     std::to_string(kBoxSteps) + " steps, dt = 1e-3");
    GTEST_SKIP() << "regenerated " << box_golden_path()
                 << "; rerun without SFG_REGEN_GOLDEN to verify";
  }

  const Seismogram ref = read_golden(box_golden_path());
  expect_matches_golden(ref, serial, "box serial sequential");

  // threads x schedule, one rank.
  for (int threads : {2, 4})
    expect_matches_golden(
        ref, compute_box_serial(threads, SolverSchedule::Colored),
        "box colored x " + std::to_string(threads) + "T");

  // threads x schedule, two ranks (collective source/receiver election).
  for (int threads : {2, 4})
    expect_matches_golden(
        ref, compute_box_two_ranks(threads, SolverSchedule::Colored),
        "box 2-rank colored x " + std::to_string(threads) + "T");
}

}  // namespace
}  // namespace sfg
