// Checkpoint/restart tests (ISSUE 2). The contract: a run checkpointed at
// an arbitrary step and restored into a freshly built Simulation produces
// BIT-IDENTICAL seismograms to an uninterrupted run — for solid-only,
// mixed fluid/solid (attenuated), threaded-colored and multi-rank
// configurations. Damaged or mismatched snapshots must be rejected with a
// clear error, never silently restored.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "mesh/cartesian.hpp"
#include "mesh/quality.hpp"
#include "model/attenuation.hpp"
#include "runtime/exchanger.hpp"
#include "runtime/fault.hpp"
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

io::SnapshotIdentity test_identity() {
  io::SnapshotIdentity id;
  id.nex = 4;
  id.nproc = 1;
  id.nchunks = 1;
  id.rank = 0;
  id.nranks = 1;
  return id;
}

struct RunConfig {
  bool fluid_layer = false;
  bool attenuation = false;
  int num_threads = 1;  ///< > 1 runs the colored schedule
};

/// Build the box problem, optionally checkpoint at `checkpoint_step` into
/// `path` and STOP there; with restore_from set, start by restoring.
Seismogram run_box(const RunConfig& rc, int nsteps, int checkpoint_step,
                   const std::string& checkpoint_path,
                   const std::string& restore_from) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(
      mesh, [&](double, double, double z) {
        return (rc.fluid_layer && z >= 250.0 && z < 500.0) ? water()
                                                           : rock();
      });
  SimulationConfig cfg;
  cfg.dt = 1.5e-3;
  cfg.num_threads = rc.num_threads;
  if (rc.attenuation) {
    const SlsSeries sls = fit_constant_q(80.0, 1.0, 20.0, 3);
    prepare_attenuation(mat, sls);
    cfg.attenuation = true;
    cfg.sls = sls;
  }
  Simulation sim(mesh, basis, mat, cfg);
  sim.add_source(test_source());
  const int rec = sim.add_receiver(700.0, 510.0, 480.0);

  int start = 0;
  if (!restore_from.empty()) {
    sim.restore_checkpoint(restore_from, test_identity());
    start = sim.step_count();
  }
  for (int s = start; s < nsteps; ++s) {
    sim.step();
    if (checkpoint_step > 0 && sim.step_count() == checkpoint_step) {
      sim.write_checkpoint(checkpoint_path, test_identity());
      return Seismogram{};  // interrupted run: stop right after the dump
    }
  }
  return sim.seismogram(rec);
}

void expect_bit_identical(const Seismogram& a, const Seismogram& b) {
  ASSERT_EQ(a.time.size(), b.time.size());
  ASSERT_FALSE(a.time.empty());
  for (std::size_t i = 0; i < a.time.size(); ++i) {
    ASSERT_EQ(a.time[i], b.time[i]) << "time sample " << i;
    for (int c = 0; c < 3; ++c)
      ASSERT_EQ(a.displ[i][c], b.displ[i][c])
          << "sample " << i << " comp " << c << " differs: restart is not "
          << "bit-identical";
  }
}

class CheckpointRoundTrip : public ::testing::TestWithParam<RunConfig> {};

TEST_P(CheckpointRoundTrip, RestoreIsBitIdentical) {
  const RunConfig rc = GetParam();
  const int nsteps = 60, k = 23;  // deliberately not a round number
  const std::string path = temp_path("ckpt_roundtrip.snap");

  const Seismogram uninterrupted =
      run_box(rc, nsteps, /*checkpoint_step=*/0, "", "");
  run_box(rc, nsteps, k, path, "");                       // dump at step k
  const Seismogram restarted = run_box(rc, nsteps, 0, "", path);

  expect_bit_identical(uninterrupted, restarted);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CheckpointRoundTrip,
    ::testing::Values(RunConfig{false, false, 1},   // solid, serial
                      RunConfig{true, false, 1},    // fluid/solid
                      RunConfig{false, true, 1},    // attenuation
                      RunConfig{false, false, 2},   // threaded
                      RunConfig{true, true, 2}));   // everything

TEST(Checkpoint, ParallelPerRankRoundTripIsBitIdentical) {
  const auto spec = box_spec();
  const int nsteps = 50, k = 17;
  const double dt = 1.5e-3;

  auto rank_identity = [](int rank) {
    io::SnapshotIdentity id;
    id.nex = 4;
    id.nproc = 2;
    id.nchunks = 1;
    id.rank = rank;
    id.nranks = 2;
    return id;
  };

  // mode 0: uninterrupted; mode 1: checkpoint at k and stop;
  // mode 2: restore from k and finish.
  auto run = [&](int mode) {
    Seismogram out;
    smpi::run_ranks(2, [&](smpi::Communicator& comm) {
      GllBasis basis(4);
      const int r = comm.rank();
      CartesianSlice slice =
          build_cartesian_slice(spec, basis, 2, 1, 1, r, 0, 0);
      std::vector<smpi::PointCandidate> cands;
      for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
        cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
      smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
      MaterialFields mat = assign_materials(
          slice.mesh, [](double, double, double) { return rock(); });
      SimulationConfig cfg;
      cfg.dt = dt;
      Simulation sim(slice.mesh, basis, mat, cfg, &comm, &ex);
      if (r == 0) sim.add_source(test_source());
      int rec = -1;
      if (r == 1) rec = sim.add_receiver(700.0, 510.0, 480.0);

      const std::string path =
          temp_path("ckpt_rank" + std::to_string(r) + ".snap");
      int start = 0;
      if (mode == 2) {
        sim.restore_checkpoint(path, rank_identity(r));
        start = sim.step_count();
      }
      const int stop = (mode == 1) ? k : nsteps;
      for (int s = start; s < stop; ++s) sim.step();
      if (mode == 1) sim.write_checkpoint(path, rank_identity(r));
      if (mode != 1 && rec >= 0) out = sim.seismogram(rec);
    });
    return out;
  };

  const Seismogram uninterrupted = run(0);
  run(1);
  const Seismogram restarted = run(2);
  expect_bit_identical(uninterrupted, restarted);
}

// ---- periodic checkpoint cadence (ISSUE 5) ----

TEST(Checkpoint, PeriodicCadenceWritesAndOverwritesAtInterval) {
  const std::string path = temp_path("ckpt_periodic.snap");
  std::remove(path.c_str());

  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(
      mesh, [](double, double, double) { return rock(); });
  SimulationConfig cfg;
  cfg.dt = 1.5e-3;
  cfg.checkpoint_interval_steps = 10;
  cfg.checkpoint_path = path;
  cfg.checkpoint_identity = test_identity();
  Simulation sim(mesh, basis, mat, cfg);
  sim.add_source(test_source());
  sim.add_receiver(700.0, 510.0, 480.0);

  // The peek helper reports -1 for a missing file...
  EXPECT_EQ(checkpoint_step(path, test_identity()), -1);
  sim.run(9);  // below the cadence: still nothing on disk
  EXPECT_EQ(checkpoint_step(path, test_identity()), -1);
  sim.run(1);  // step 10: first periodic dump
  EXPECT_EQ(checkpoint_step(path, test_identity()), 10);
  sim.run(15);  // steps 11..25: dump at 20 overwrites the one at 10
  EXPECT_EQ(checkpoint_step(path, test_identity()), 20);

  // ...and -1 (not an exception) for an identity mismatch or garbage.
  io::SnapshotIdentity wrong = test_identity();
  wrong.nex = 8;
  EXPECT_EQ(checkpoint_step(path, wrong), -1);
  const std::string garbage = temp_path("ckpt_peek_garbage.snap");
  {
    std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  }
  EXPECT_EQ(checkpoint_step(garbage, test_identity()), -1);
}

TEST(Checkpoint, MidRunRankDeathRestartsBitIdentical) {
  // The ISSUE 5 recovery scenario end to end, at the solver level: a
  // 2-rank run with a 10-step periodic cadence loses rank 1 at step 25;
  // every rank's last periodic checkpoint is step 20 (per-step halo
  // exchange keeps ranks in lockstep, so nobody reached step 30); a new
  // world restored from that consistent set finishes the run and its
  // seismograms are bit-identical to a never-faulted run's.
  const auto spec = box_spec();
  const int nsteps = 50, interval = 10, kill_step = 25;
  const double dt = 1.5e-3;

  auto rank_identity = [](int rank) {
    io::SnapshotIdentity id;
    id.nex = 4;
    id.nproc = 2;
    id.nchunks = 1;
    id.rank = rank;
    id.nranks = 2;
    return id;
  };
  auto rank_path = [&](int rank) {
    return temp_path("ckpt_death_rank" + std::to_string(rank) + ".snap");
  };

  // mode 0: uninterrupted, no checkpoints; mode 1: periodic cadence +
  // rank 1 dies at kill_step; mode 2: restore from the consistent set.
  auto run = [&](int mode) {
    Seismogram out;
    auto body = [&](smpi::Communicator& comm) {
      GllBasis basis(4);
      const int r = comm.rank();
      CartesianSlice slice =
          build_cartesian_slice(spec, basis, 2, 1, 1, r, 0, 0);
      std::vector<smpi::PointCandidate> cands;
      for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
        cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
      smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
      MaterialFields mat = assign_materials(
          slice.mesh, [](double, double, double) { return rock(); });
      SimulationConfig cfg;
      cfg.dt = dt;
      if (mode != 0) {
        cfg.checkpoint_interval_steps = interval;
        cfg.checkpoint_path = rank_path(r);
        cfg.checkpoint_identity = rank_identity(r);
      }
      Simulation sim(slice.mesh, basis, mat, cfg, &comm, &ex);
      if (r == 0) sim.add_source(test_source());
      int rec = -1;
      if (r == 1) rec = sim.add_receiver(700.0, 510.0, 480.0);

      int start = 0;
      if (mode == 2) {
        sim.restore_checkpoint(rank_path(r), rank_identity(r));
        start = sim.step_count();
        EXPECT_EQ(start, 20);
      }
      sim.run(nsteps - start);
      if (rec >= 0) out = sim.seismogram(rec);
    };
    if (mode == 1) {
      smpi::FaultPlan plan;
      plan.kill_rank(1, kill_step);
      EXPECT_THROW(smpi::run_ranks_with_faults(2, plan, body),
                   smpi::SimulationAborted);
    } else {
      smpi::run_ranks(2, body);
    }
    return out;
  };

  const Seismogram uninterrupted = run(0);
  run(1);  // the faulted run: dies at step 25, leaves checkpoints at 20
  for (int r = 0; r < 2; ++r)
    ASSERT_EQ(checkpoint_step(rank_path(r), rank_identity(r)), 20)
        << "rank " << r
        << ": the last periodic set before the death must be consistent";
  const Seismogram recovered = run(2);
  expect_bit_identical(uninterrupted, recovered);
}

// ---- rejection of damaged or mismatched snapshots ----

class CheckpointRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("ckpt_reject.snap");
    run_box(RunConfig{}, 60, 10, path_, "");
  }
  std::string path_;
};

TEST_F(CheckpointRejection, CorruptedByteFailsCrc) {
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(200);  // somewhere inside the field payloads
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(200);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();

  try {
    run_box(RunConfig{}, 60, 0, "", path_);
    FAIL() << "corrupted snapshot was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointRejection, TruncatedFileRejected) {
  std::vector<char> bytes;
  {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    bytes.resize(static_cast<std::size_t>(in.tellg()) / 2);  // keep half
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(run_box(RunConfig{}, 60, 0, "", path_), CheckError);
}

TEST_F(CheckpointRejection, EmptyAndGarbageFilesRejected) {
  const std::string garbage = temp_path("ckpt_garbage.snap");
  {
    std::ofstream out(garbage, std::ios::binary | std::ios::trunc);
    out << "this is not a snapshot at all, not even close.....";
  }
  try {
    run_box(RunConfig{}, 60, 0, "", garbage);
    FAIL() << "garbage file was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }

  const std::string empty = temp_path("ckpt_empty.snap");
  { std::ofstream out(empty, std::ios::binary | std::ios::trunc); }
  EXPECT_THROW(run_box(RunConfig{}, 60, 0, "", empty), CheckError);
}

TEST_F(CheckpointRejection, IdentityMismatchRejected) {
  // The file was written with NEX=4/NPROC=1; opening it under a claimed
  // NEX=8 decomposition must fail with a message naming both.
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(
      mesh, [](double, double, double) { return rock(); });
  SimulationConfig cfg;
  cfg.dt = 1.5e-3;
  Simulation sim(mesh, basis, mat, cfg);
  sim.add_source(test_source());
  sim.add_receiver(700.0, 510.0, 480.0);

  io::SnapshotIdentity wrong = test_identity();
  wrong.nex = 8;
  try {
    sim.restore_checkpoint(path_, wrong);
    FAIL() << "NEX-mismatched snapshot was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NEX=8"), std::string::npos) << what;
    EXPECT_NE(what.find("NEX=4"), std::string::npos) << what;
  }

  io::SnapshotIdentity wrong_rank = test_identity();
  wrong_rank.rank = 3;
  wrong_rank.nranks = 4;
  EXPECT_THROW(sim.restore_checkpoint(path_, wrong_rank), CheckError);
}

TEST_F(CheckpointRejection, MismatchedRunLayoutRejected) {
  // Same identity, but the restoring simulation has attenuation on — the
  // meta fingerprint (nsls) must catch it even though NEX matches.
  RunConfig rc;
  rc.attenuation = true;
  EXPECT_THROW(run_box(rc, 60, 0, "", path_), CheckError);
}

// ---- clustered LTS across checkpoints (ISSUE 7) ----
//
// A multi-cluster run carries state beyond the wavefields: the per-rate
// clocks, the latched per-cluster accelerations and the stride-start
// interface snapshots the masked predictor reads mid-stride. A checkpoint
// taken MID-STRIDE (step not divisible by the slow strides) must restore
// all of it bit-identically, a snapshot can never silently cross to
// another cluster count, and one cluster carries none of that state.

/// Velocity-banded solid material for the 4^3 box: the per-element stable
/// dt spreads by exactly the vp ratio (1:2:4 bottom to top), so with
/// dt = 0.95 * min(stable) the element levels land on {0, 1, 2}.
MaterialSample banded_rock(double z) {
  MaterialSample s;
  s.q_mu = 0.0;
  if (z < 250.0) {  // stiff basement: the fast (level-0) cluster
    s.rho = 2700.0;
    s.vp = 6000.0;
    s.vs = 3600.0;
  } else if (z < 500.0) {
    s.rho = 2500.0;
    s.vp = 3000.0;
    s.vs = 1800.0;
  } else {
    s.rho = 2000.0;
    s.vp = 1500.0;
    s.vs = 900.0;
  }
  return s;
}

/// The banded box's config: dt = 0.95 * the minimum stable dt, with the
/// per-element stable dt as element_dt (three clusters) or, with
/// `one_cluster`, a uniform element_dt of the base step.
SimulationConfig banded_lts_config(const HexMesh& mesh,
                                   const MaterialFields& mat,
                                   bool one_cluster = false) {
  SimulationConfig cfg;
  const std::vector<double> edt = element_stable_dt(mesh, mat.vp);
  cfg.dt = 0.95 * *std::min_element(edt.begin(), edt.end());
  cfg.lts.element_dt = edt;
  if (one_cluster)
    std::fill(cfg.lts.element_dt.begin(), cfg.lts.element_dt.end(), cfg.dt);
  return cfg;
}

Seismogram run_lts_box(int nsteps, int checkpoint_step,
                       const std::string& checkpoint_path,
                       const std::string& restore_from) {
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(
      mesh, [](double, double, double z) { return banded_rock(z); });
  Simulation sim(mesh, basis, mat, banded_lts_config(mesh, mat));
  EXPECT_EQ(sim.lts_num_levels(), 3);
  sim.add_source(test_source());
  const int rec = sim.add_receiver(700.0, 510.0, 480.0);

  int start = 0;
  if (!restore_from.empty()) {
    sim.restore_checkpoint(restore_from, test_identity());
    start = sim.step_count();
    // The restored per-rate clocks must sit exactly on clock[r] = step >> r.
    for (int k = 0; k < sim.lts_num_levels(); ++k)
      EXPECT_EQ(sim.lts_clock()[static_cast<std::size_t>(k)], start >> k)
          << "restored LTS clock[" << k << "] off the stride grid";
  }
  for (int s = start; s < nsteps; ++s) {
    sim.step();
    if (checkpoint_step > 0 && sim.step_count() == checkpoint_step) {
      sim.write_checkpoint(checkpoint_path, test_identity());
      return Seismogram{};
    }
  }
  return sim.seismogram(rec);
}

TEST(Checkpoint, LtsMultiClusterMidStrideRoundTripIsBitIdentical) {
  // k = 23 is odd: every slow cluster is mid-stride at the dump, so the
  // restore leans on the checkpointed interface snapshots and a_pred — a
  // restart that rebuilt them from scratch would diverge immediately.
  const int nsteps = 60, k = 23;
  const std::string path = temp_path("ckpt_lts_roundtrip.snap");

  const Seismogram uninterrupted = run_lts_box(nsteps, 0, "", "");
  run_lts_box(nsteps, k, path, "");
  const Seismogram restarted = run_lts_box(nsteps, 0, "", path);

  expect_bit_identical(uninterrupted, restarted);
}

TEST(Checkpoint, LtsClusterCountMismatchIsRejected) {
  const std::string multi_path = temp_path("ckpt_lts_mismatch.snap");
  run_lts_box(60, 23, multi_path, "");  // snapshot taken with 3 clusters

  // Same mesh, same dt, one cluster (global dt), and the reverse: the
  // meta fingerprint must refuse before any field is loaded.
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(
      mesh, [](double, double, double z) { return banded_rock(z); });
  Simulation one(mesh, basis, mat,
                 banded_lts_config(mesh, mat, /*one_cluster=*/true));
  ASSERT_EQ(one.lts_num_levels(), 1);
  Simulation multi(mesh, basis, mat, banded_lts_config(mesh, mat));
  ASSERT_EQ(multi.lts_num_levels(), 3);
  for (Simulation* sim : {&one, &multi}) {
    sim->add_source(test_source());
    sim->add_receiver(700.0, 510.0, 480.0);
  }
  const std::string one_path = temp_path("ckpt_lts_one_cluster.snap");
  one.run(23);
  one.write_checkpoint(one_path, test_identity());

  for (auto [sim, path] : {std::pair{&one, multi_path},
                           std::pair{&multi, one_path}}) {
    try {
      sim->restore_checkpoint(path, test_identity());
      ADD_FAILURE() << "snapshot " << path
                    << " restored into a run with another cluster count";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("LTS cluster"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, SingleClusterCarriesNoLtsBuffersOrSections) {
  // One cluster is global dt: neither a uniform element_dt nor an empty
  // one allocates the multi-cluster buffers or checkpoints them. The
  // three-cluster run is the positive control.
  GllBasis basis(4);
  HexMesh mesh = build_cartesian_box(box_spec(), basis);
  MaterialFields mat = assign_materials(
      mesh, [](double, double, double z) { return banded_rock(z); });
  SimulationConfig empty_dt = banded_lts_config(mesh, mat);
  empty_dt.lts.element_dt.clear();
  const struct {
    SimulationConfig cfg;
    bool clustered;
    const char* name;
  } legs[] = {
      {empty_dt, false, "empty element_dt"},
      {banded_lts_config(mesh, mat, /*one_cluster=*/true), false,
       "uniform element_dt"},
      {banded_lts_config(mesh, mat), true, "three clusters"},
  };
  for (const auto& leg : legs) {
    Simulation sim(mesh, basis, mat, leg.cfg);
    EXPECT_EQ(sim.lts_num_levels() > 1, leg.clustered) << leg.name;
    EXPECT_EQ(sim.lts_state_floats() > 0, leg.clustered) << leg.name;
    sim.run(5);
    const std::string path = temp_path("ckpt_lts_sections.snap");
    sim.write_checkpoint(path, test_identity());
    const io::SnapshotReader reader =
        io::SnapshotReader::open(path, test_identity());
    for (const char* section : {"lts.a_pred", "lts.u0", "lts.v0", "lts.a0"})
      EXPECT_EQ(reader.has(section), leg.clustered)
          << leg.name << ": section " << section;
    EXPECT_EQ(reader.read_vector<std::int64_t>("lts.clock"),
              sim.lts_clock())
        << leg.name;
  }
}

TEST(Checkpoint, LtsMidRunRankDeathRestartsBitIdentical) {
  // The ISSUE 5 recovery scenario with clusters in play: a 2-rank x-split
  // (each rank carries all three z-banded clusters and the cluster
  // smoothing runs through the halo), periodic cadence of 7 so the last
  // consistent set before the death at step 25 lands on step 21 —
  // mid-stride for both slow clusters.
  const auto spec = box_spec();
  const int nsteps = 50, interval = 7, kill_step = 25;

  const double dt = [&] {
    GllBasis basis(4);
    HexMesh mesh = build_cartesian_box(spec, basis);
    MaterialFields mat = assign_materials(
        mesh, [](double, double, double z) { return banded_rock(z); });
    const std::vector<double> edt = element_stable_dt(mesh, mat.vp);
    return 0.95 * *std::min_element(edt.begin(), edt.end());
  }();

  auto rank_identity = [](int rank) {
    io::SnapshotIdentity id;
    id.nex = 4;
    id.nproc = 2;
    id.nchunks = 1;
    id.rank = rank;
    id.nranks = 2;
    return id;
  };
  auto rank_path = [&](int rank) {
    return temp_path("ckpt_lts_death_rank" + std::to_string(rank) +
                     ".snap");
  };

  auto run = [&](int mode) {
    Seismogram out;
    auto body = [&](smpi::Communicator& comm) {
      GllBasis basis(4);
      const int r = comm.rank();
      CartesianSlice slice =
          build_cartesian_slice(spec, basis, 2, 1, 1, r, 0, 0);
      std::vector<smpi::PointCandidate> cands;
      for (std::size_t n = 0; n < slice.boundary_keys.size(); ++n)
        cands.push_back({slice.boundary_keys[n], slice.boundary_points[n]});
      smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
      MaterialFields mat = assign_materials(
          slice.mesh, [](double, double, double z) {
            return banded_rock(z);
          });
      SimulationConfig cfg;
      cfg.dt = dt;  // global minimum — identical on both slices
      cfg.lts.element_dt = element_stable_dt(slice.mesh, mat.vp);
      if (mode != 0) {
        cfg.checkpoint_interval_steps = interval;
        cfg.checkpoint_path = rank_path(r);
        cfg.checkpoint_identity = rank_identity(r);
      }
      Simulation sim(slice.mesh, basis, mat, cfg, &comm, &ex);
      EXPECT_EQ(sim.lts_num_levels(), 3);
      if (r == 0) sim.add_source(test_source());
      int rec = -1;
      if (r == 1) rec = sim.add_receiver(700.0, 510.0, 480.0);

      int start = 0;
      if (mode == 2) {
        sim.restore_checkpoint(rank_path(r), rank_identity(r));
        start = sim.step_count();
        EXPECT_EQ(start, 21);
      }
      sim.run(nsteps - start);
      if (rec >= 0) out = sim.seismogram(rec);
    };
    if (mode == 1) {
      smpi::FaultPlan plan;
      plan.kill_rank(1, kill_step);
      EXPECT_THROW(smpi::run_ranks_with_faults(2, plan, body),
                   smpi::SimulationAborted);
    } else {
      smpi::run_ranks(2, body);
    }
    return out;
  };

  const Seismogram uninterrupted = run(0);
  run(1);  // dies at 25; leaves a consistent per-rank set at 21
  for (int r = 0; r < 2; ++r)
    ASSERT_EQ(checkpoint_step(rank_path(r), rank_identity(r)), 21)
        << "rank " << r << ": last periodic set before the death";
  const Seismogram recovered = run(2);
  expect_bit_identical(uninterrupted, recovered);
}

// ---- metrics across restart (ISSUE 3) ----

TEST(Checkpoint, RestoredRunReproducesStepPhaseMetricCounts) {
  // The snapshot carries the cumulative step-phase metric counters, so the
  // end-of-run report of a dump-and-restore run covers the WHOLE run. Wall
  // seconds are machine-dependent; the per-phase segment counts are
  // deterministic and must match the uninterrupted run exactly.
  RunConfig rc;
  rc.attenuation = true;  // exercises the nested AttenuationUpdate counter
  const int nsteps = 40, k = 17;
  const std::string path = temp_path("ckpt_metrics.snap");

  // mode 0: uninterrupted; 1: dump at step k and stop; 2: restore+finish.
  auto run_counts = [&](int mode, int* steps_out,
                        std::array<std::uint64_t, metrics::kNumPhases>*
                            counts_out) {
    GllBasis basis(4);
    HexMesh mesh = build_cartesian_box(box_spec(), basis);
    MaterialFields mat = assign_materials(
        mesh, [](double, double, double) { return rock(); });
    SimulationConfig cfg;
    cfg.dt = 1.5e-3;
    const SlsSeries sls = fit_constant_q(80.0, 1.0, 20.0, 3);
    prepare_attenuation(mat, sls);
    cfg.attenuation = true;
    cfg.sls = sls;
    Simulation sim(mesh, basis, mat, cfg);
    sim.add_source(test_source());
    sim.add_receiver(700.0, 510.0, 480.0);

    int start = 0;
    if (mode == 2) {
      sim.restore_checkpoint(path, test_identity());
      start = sim.step_count();
      EXPECT_EQ(start, k);
      EXPECT_EQ(sim.step_profile().steps(), k)
          << "restore must carry the dumped step-metric history";
    }
    const int stop = (mode == 1) ? k : nsteps;
    for (int s = start; s < stop; ++s) sim.step();
    if (mode == 1) sim.write_checkpoint(path, test_identity());
    *steps_out = sim.step_profile().steps();
    *counts_out = sim.step_profile().phase_counts();
  };

  int steps_full = 0, steps_dump = 0, steps_restored = 0;
  std::array<std::uint64_t, metrics::kNumPhases> full{}, dump{}, restored{};
  run_counts(0, &steps_full, &full);
  run_counts(1, &steps_dump, &dump);
  run_counts(2, &steps_restored, &restored);

  EXPECT_EQ(steps_full, nsteps);
  EXPECT_EQ(steps_dump, k);
  EXPECT_EQ(steps_restored, nsteps);
  for (int p = 0; p < metrics::kNumPhases; ++p)
    EXPECT_EQ(restored[static_cast<std::size_t>(p)],
              full[static_cast<std::size_t>(p)])
        << "phase " << metrics::phase_name(static_cast<metrics::Phase>(p))
        << ": restored run's cumulative segment count differs from the "
        << "uninterrupted run";
  // Sanity: the run actually exercised the counters under test.
  EXPECT_GT(full[static_cast<std::size_t>(metrics::Phase::SolidForces)],
            0u);
  EXPECT_GT(
      full[static_cast<std::size_t>(metrics::Phase::AttenuationUpdate)],
      0u);
}

// ---- container unit checks ----

TEST(Snapshot, Crc32KnownAnswer) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(io::crc32("123456789", 9), 0xCBF43926u);
}

TEST(Snapshot, RoundTripsSectionsAndIdentity) {
  const std::string path = temp_path("snap_unit.snap");
  io::SnapshotWriter w;
  const std::vector<float> field = {1.0f, -2.5f, 3.25f};
  w.add_vector("field", field);
  const std::int64_t step = 1234;
  w.add_values("step", &step, 1);
  io::SnapshotIdentity id;
  id.nex = 16;
  id.nproc = 2;
  id.nchunks = 6;
  id.rank = 7;
  id.nranks = 24;
  w.write(path, id);

  const auto r = io::SnapshotReader::open(path, id);
  EXPECT_EQ(r.identity(), id);
  EXPECT_TRUE(r.has("field"));
  EXPECT_FALSE(r.has("nope"));
  EXPECT_EQ(r.read_vector<float>("field"), field);
  EXPECT_EQ(r.read_value<std::int64_t>("step"), step);
  EXPECT_THROW(r.section("nope"), CheckError);
}

}  // namespace
}  // namespace sfg
