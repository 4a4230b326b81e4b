// Clustered local time stepping (ISSUE 7), solver-level contract.
//
// Three gates, mirroring the schedule-property harness one level up:
//   1. DEGENERACY — a uniform element_dt clusters into one cluster, which
//      is BIT-IDENTICAL to an empty element_dt (no clustering, global dt)
//      on every schedule/thread leg: 1-thread Sequential and 1/2/4-thread
//      Colored.
//   2. CORRECTNESS — a genuinely multi-cluster run (refined-box mesh with
//      a 4x stable-dt spread, >= 3 clusters) reproduces a committed golden
//      at 5e-6 * peak across threads and a 2-rank split, stays
//      close to the global-dt solution, and keeps its per-rate clocks on
//      the clock[r] == step >> r invariant.
//   3. REFUSAL — the Simulation must REFUSE to march on an unsound cluster
//      schedule: every injection tooth of mesh/coloring.hpp
//      (ClusterOptions::unsafe_*) forced through SimulationConfig::lts
//      must abort construction with the matching checker message, as must
//      the unsupported-feature combinations (sequential schedule,
//      attenuation, a base dt above an element's stable dt).
//
// Regenerating the refined-box golden (only when physics changes are
// intended):  SFG_REGEN_GOLDEN=1 ./test_lts   (see docs/testing.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mesh/cartesian.hpp"
#include "mesh/quality.hpp"
#include "runtime/exchanger.hpp"
#include "solver/simulation.hpp"

#ifndef SFG_GOLDEN_DIR
#error "SFG_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace sfg {
namespace {

// ---- shared golden-file helpers (same format as test_golden_seismogram)

void write_golden(const std::string& path, const Seismogram& s,
                  const std::string& header) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "# " << header << "\n"
      << "# time ux uy uz\n";
  out.precision(17);
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
      << " — run SFG_REGEN_GOLDEN=1 ./test_lts to create it";
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
        << leg << ": time axis changed at sample " << i;
    for (int c = 0; c < 3; ++c)
      ASSERT_NEAR(ref.displ[i][c], got.displ[i][c], tol)
          << leg << ": sample " << i << " component " << c
          << " deviates from the committed reference; if this change is "
             "intended, regenerate per docs/testing.md";
  }
}

void expect_bit_identical(const Seismogram& a, const Seismogram& b,
                          const std::string& leg) {
  ASSERT_EQ(a.time.size(), b.time.size()) << leg;
  ASSERT_FALSE(a.time.empty()) << leg;
  for (std::size_t i = 0; i < a.time.size(); ++i) {
    ASSERT_EQ(a.time[i], b.time[i]) << leg << ": time sample " << i;
    for (int c = 0; c < 3; ++c)
      ASSERT_EQ(a.displ[i][c], b.displ[i][c])
          << leg << ": sample " << i << " comp " << c
          << " — must be bit-identical";
  }
}

// ---- leg 1: single-cluster degeneracy on the mixed fluid/solid box ----

CartesianBoxSpec mixed_box_spec() {
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = 4;
  spec.lx = spec.ly = spec.lz = 1000.0;
  return spec;
}

MaterialSample mixed_material(double, double, double z) {
  MaterialSample s;
  if (z < 250.0) {  // fluid bottom layer keeps the acoustic path in play
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

Seismogram run_mixed_box(bool uniform_dt, int num_threads,
                         SolverSchedule schedule) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(mixed_box_spec(), basis);
  MaterialFields mat = assign_materials(mesh, mixed_material);
  SimulationConfig cfg;
  cfg.dt = 1.0e-3;
  cfg.num_threads = num_threads;
  cfg.schedule = schedule;
  // Every element stable at exactly the base step: all in cluster 0.
  if (uniform_dt)
    cfg.lts.element_dt.assign(static_cast<std::size_t>(mesh.nspec), cfg.dt);
  Simulation sim(mesh, basis, mat, cfg);
  EXPECT_EQ(sim.lts_num_levels(), 1);
  EXPECT_EQ(sim.lts_num_interface_points(), 0);
  EXPECT_EQ(sim.lts_state_floats(), 0u);
  EXPECT_EQ(sim.lts_partition().level_of.empty(), !uniform_dt);
  PointSource src;
  src.x = 480.0;
  src.y = 520.0;
  src.z = 760.0;
  src.force = {0.0, 0.0, 1e9};
  src.stf = ricker_wavelet(10.0, 0.12);
  sim.add_source(src);
  const int rec = sim.add_receiver(520.0, 480.0, 810.0);
  sim.run(120);
  return sim.seismogram(rec);
}

TEST(LtsSingleCluster, BitIdenticalToGlobalDtAcrossScheduleMatrix) {
  struct Leg {
    int threads;
    SolverSchedule schedule;
    const char* name;
  };
  const Leg legs[] = {
      {1, SolverSchedule::Sequential, "1T sequential"},
      {1, SolverSchedule::Colored, "1T colored"},
      {2, SolverSchedule::Colored, "2T colored"},
      {4, SolverSchedule::Colored, "4T colored"},
  };
  for (const Leg& leg : legs) {
    const Seismogram global = run_mixed_box(false, leg.threads, leg.schedule);
    const Seismogram one_cluster =
        run_mixed_box(true, leg.threads, leg.schedule);
    expect_bit_identical(global, one_cluster, leg.name);
  }
}

// ---- the refined box: a 4x stable-dt spread -> three clusters ----
//
// Stiff fast layer at the bottom (vp = 6000), soft slow half on top
// (vp = 1500): the per-element stable dt spreads by exactly the velocity
// ratio, so with dt = 0.95 * min(stable) the element levels land on
// {0, 1, 2}. Source and receiver sit in the SLOW region — the signal the
// golden pins crosses both cluster interfaces on its way up.

CartesianBoxSpec refined_box_spec() {
  CartesianBoxSpec spec;
  spec.nx = spec.ny = 4;
  spec.nz = 8;
  spec.lx = spec.ly = 1000.0;
  spec.lz = 2000.0;
  return spec;
}

MaterialSample refined_material(double, double, double z) {
  MaterialSample s;
  if (z < 500.0) {  // stiff basement: the fast (level-0) cluster
    s.rho = 2700.0;
    s.vp = 6000.0;
    s.vs = 3600.0;
  } else {  // soft overburden: marches 4x slower
    s.rho = 2000.0;
    s.vp = 1500.0;
    s.vs = 900.0;
  }
  s.q_mu = 0.0;
  return s;
}

constexpr int kRefinedSteps = 200;
constexpr int kRefinedRecordEvery = 4;  // = 2^(max level): consistent samples

PointSource refined_source() {
  PointSource src;
  src.x = 480.0;
  src.y = 520.0;
  src.z = 1460.0;  // slow region
  src.force = {0.0, 0.0, 1e9};
  src.stf = ricker_wavelet(4.0, 0.3);
  return src;
}

constexpr double kRefRecX = 530.0, kRefRecY = 470.0, kRefRecZ = 1700.0;

/// The base step shared by every refined-box leg: 0.95 * the global
/// minimum per-element stable dt (deterministic — derived from the serial
/// mesh, identical for the slice legs).
double refined_base_dt() {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(refined_box_spec(), basis);
  MaterialFields mat = assign_materials(mesh, refined_material);
  const std::vector<double> edt = element_stable_dt(mesh, mat.vp);
  return 0.95 * *std::min_element(edt.begin(), edt.end());
}

struct RefinedRun {
  Seismogram seis;
  int num_levels = 0;
  int ninterp = 0;
  std::vector<std::int64_t> clock;
  SolverSchedule schedule = SolverSchedule::Auto;
};

RefinedRun run_refined_box(bool lts, int num_threads,
                           int nsteps = kRefinedSteps,
                           SolverSchedule schedule = SolverSchedule::Auto) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(refined_box_spec(), basis);
  MaterialFields mat = assign_materials(mesh, refined_material);
  SimulationConfig cfg;
  cfg.dt = refined_base_dt();
  cfg.num_threads = num_threads;
  cfg.schedule = schedule;
  cfg.record_every = kRefinedRecordEvery;
  if (lts) cfg.lts.element_dt = element_stable_dt(mesh, mat.vp);
  Simulation sim(mesh, basis, mat, cfg);
  sim.add_source(refined_source());
  const int rec = sim.add_receiver(kRefRecX, kRefRecY, kRefRecZ);
  sim.run(nsteps);
  RefinedRun out;
  out.seis = sim.seismogram(rec);
  out.num_levels = sim.lts_num_levels();
  out.ninterp = sim.lts_num_interface_points();
  out.clock = sim.lts_clock();
  out.schedule = sim.active_schedule();
  return out;
}

/// Two-rank x-split of the refined box: both ranks carry all three
/// clusters and the cluster smoothing/interface machinery runs through
/// assemble_min across the slice boundary.
Seismogram run_refined_box_two_ranks(int num_threads) {
  const double dt = refined_base_dt();
  Seismogram out;
  smpi::run_ranks(2, [&](smpi::Communicator& comm) {
    GllBasis basis(4);
    CartesianSlice slice = build_cartesian_slice(
        refined_box_spec(), basis, 2, 1, 1, comm.rank(), 0, 0);
    std::vector<smpi::PointCandidate> cands;
    for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
      cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    MaterialFields mat = assign_materials(slice.mesh, refined_material);
    SimulationConfig cfg;
    cfg.dt = dt;
    cfg.num_threads = num_threads;
    cfg.record_every = kRefinedRecordEvery;
    cfg.lts.element_dt = element_stable_dt(slice.mesh, mat.vp);
    Simulation sim(slice.mesh, basis, mat, cfg, &comm, &ex);
    EXPECT_EQ(sim.lts_num_levels(), 3);
    sim.add_source_global(refined_source());
    const int rec = sim.add_receiver_global(kRefRecX, kRefRecY, kRefRecZ);
    sim.run(kRefinedSteps);
    if (rec >= 0) out = sim.seismogram(rec);
  });
  EXPECT_EQ(out.time.size(),
            static_cast<std::size_t>(kRefinedSteps / kRefinedRecordEvery));
  return out;
}

std::string refined_golden_path() {
  return std::string(SFG_GOLDEN_DIR) + "/box_refined_lts_seismogram.txt";
}

TEST(LtsMultiCluster, MatchesCommittedGoldenAcrossThreadsKernelsRanks) {
  const RefinedRun ref_run = run_refined_box(true, 1);
  ASSERT_EQ(ref_run.num_levels, 3)
      << "the refined box must produce three dt clusters";
  ASSERT_GT(ref_run.ninterp, 0);
  EXPECT_EQ(ref_run.schedule, SolverSchedule::Colored)
      << "Auto must resolve multi-cluster LTS at one thread to Colored";
  ASSERT_EQ(ref_run.seis.time.size(),
            static_cast<std::size_t>(kRefinedSteps / kRefinedRecordEvery));

  if (std::getenv("SFG_REGEN_GOLDEN") != nullptr) {
    write_golden(refined_golden_path(), ref_run.seis,
                 "golden seismogram: 4x4x8 refined box, 3 LTS clusters, " +
                     std::to_string(kRefinedSteps) +
                     " steps, dt = 0.95 * min stable, record every " +
                     std::to_string(kRefinedRecordEvery));
    GTEST_SKIP() << "regenerated " << refined_golden_path()
                 << "; rerun without SFG_REGEN_GOLDEN to verify";
  }

  const Seismogram ref = read_golden(refined_golden_path());
  expect_matches_golden(ref, ref_run.seis, "refined 1T");
  expect_matches_golden(ref, run_refined_box(true, 2).seis, "refined 2T");
  expect_matches_golden(ref, run_refined_box(true, 4).seis, "refined 4T");
  expect_matches_golden(ref, run_refined_box_two_ranks(2),
                        "refined 2-rank 2T");
}

TEST(LtsMultiCluster, ThreadCountsAreBitIdentical) {
  // The per-point summation order is (rate, color) lexicographic and fixed
  // at schedule build, so — as with the single-rate colored schedule —
  // every thread count produces the SAME bits, not merely close ones.
  const Seismogram t1 =
      run_refined_box(true, 1, 80, SolverSchedule::Colored).seis;
  const Seismogram t2 =
      run_refined_box(true, 2, 80, SolverSchedule::Colored).seis;
  const Seismogram t4 =
      run_refined_box(true, 4, 80, SolverSchedule::Colored).seis;
  expect_bit_identical(t1, t2, "multi-cluster 1T vs 2T");
  expect_bit_identical(t1, t4, "multi-cluster 1T vs 4T");
}

TEST(LtsMultiCluster, StaysCloseToGlobalDtSolution) {
  // Accuracy, not just determinism: the clustered march with interface
  // interpolation must track the global-dt solution of the SAME problem.
  // The comparison is relative L2 over the whole record — interpolation
  // is second-order in the slow strides, so a few percent covers it with
  // headroom while any dropped/garbled interface blows past it.
  const Seismogram lts = run_refined_box(true, 1).seis;
  const Seismogram glob = run_refined_box(false, 1).seis;
  ASSERT_EQ(lts.time.size(), glob.time.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < lts.time.size(); ++i)
    for (int c = 0; c < 3; ++c) {
      const double d = lts.displ[i][c] - glob.displ[i][c];
      num += d * d;
      den += glob.displ[i][c] * glob.displ[i][c];
    }
  ASSERT_GT(den, 0.0);
  const double rel = std::sqrt(num / den);
  EXPECT_LT(rel, 0.05) << "clustered LTS drifted " << rel
                       << " relative L2 from the global-dt solution";
}

TEST(LtsMultiCluster, PerRateClocksTrackTheStepIndex) {
  const int nsteps = 37;  // deliberately mid-stride for levels 1 and 2
  const RefinedRun r = run_refined_box(true, 1, nsteps);
  ASSERT_EQ(r.num_levels, 3);
  ASSERT_EQ(r.clock.size(), 3u);
  for (int k = 0; k < 3; ++k)
    EXPECT_EQ(r.clock[static_cast<std::size_t>(k)], nsteps >> k)
        << "clock[" << k << "] must count completed rate-" << k
        << " strides";
}

// ---- leg 3: refusal of unsound cluster schedules and configs ----

SimulationConfig refined_lts_config(const HexMesh& mesh,
                                    const MaterialFields& mat) {
  SimulationConfig cfg;
  cfg.dt = refined_base_dt();
  cfg.lts.element_dt = element_stable_dt(mesh, mat.vp);
  return cfg;
}

class LtsRefusal : public ::testing::Test {
 protected:
  void SetUp() override {
    basis_ = std::make_unique<GllBasis>(4);
    mesh_ = build_cartesian_box(refined_box_spec(), *basis_);
    mat_ = assign_materials(mesh_, refined_material);
  }
  void expect_ctor_throws(const SimulationConfig& cfg,
                          const std::string& needle) {
    try {
      Simulation sim(mesh_, *basis_, mat_, cfg);
      FAIL() << "construction accepted an unsound configuration (wanted: "
             << needle << ")";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "wrong refusal message: " << e.what();
    }
  }
  std::unique_ptr<GllBasis> basis_;
  HexMesh mesh_;
  MaterialFields mat_;
};

TEST_F(LtsRefusal, DroppedInterpolationPointsAreCaught) {
  SimulationConfig cfg = refined_lts_config(mesh_, mat_);
  cfg.lts.cluster.unsafe_drop_interp_points = true;
  expect_ctor_throws(cfg, "skipped interface interpolation");
}

TEST_F(LtsRefusal, MutatedClusterAssignmentsAreCaught) {
  SimulationConfig cfg = refined_lts_config(mesh_, mat_);
  cfg.lts.cluster.unsafe_rate_from_own_level = true;
  expect_ctor_throws(cfg, "mutated assignment");
}

TEST_F(LtsRefusal, CrossClusterMergesAreCaught) {
  SimulationConfig cfg = refined_lts_config(mesh_, mat_);
  cfg.lts.cluster.unsafe_merge_slowest_rates = true;
  expect_ctor_throws(cfg, "cross-cluster merge");
}

TEST_F(LtsRefusal, SequentialScheduleIsRefused) {
  SimulationConfig cfg = refined_lts_config(mesh_, mat_);
  cfg.schedule = SolverSchedule::Sequential;
  expect_ctor_throws(cfg, "multi-cluster LTS requires a colored schedule");
}

TEST_F(LtsRefusal, AttenuationIsRefused) {
  SimulationConfig cfg = refined_lts_config(mesh_, mat_);
  const SlsSeries sls = fit_constant_q(80.0, 1.0, 20.0, 3);
  for (auto& q : mat_.q_mu) q = 80.0f;
  prepare_attenuation(mat_, sls);
  cfg.attenuation = true;
  cfg.sls = sls;
  expect_ctor_throws(cfg, "does not support attenuation");
}

TEST_F(LtsRefusal, BaseStepAboveAnElementStableDtIsRefused) {
  SimulationConfig cfg = refined_lts_config(mesh_, mat_);
  cfg.dt = cfg.lts.element_dt[0] * 2.0;  // dt above some stable dt
  expect_ctor_throws(cfg, "the base step must be the global minimum");
}

}  // namespace
}  // namespace sfg
