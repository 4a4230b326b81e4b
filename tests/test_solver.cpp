// Serial physics validation of the SEM solver: energy conservation,
// stability (Courant), wave speeds, attenuation decay, loop-order
// invariance (§4.2), sources and receivers (§4.4), absorbing boundaries
// and rotation. Kernel-variant equivalence (§4.3) lives in test_kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.hpp"
#include "mesh/cartesian.hpp"
#include "mesh/quality.hpp"
#include "solver/simulation.hpp"

namespace sfg {
namespace {

MaterialSample rock() {
  MaterialSample s;
  s.rho = 2500.0;
  s.vp = 3000.0;
  s.vs = 1800.0;
  s.q_mu = 60.0;
  return s;
}

/// A small homogeneous solid box with a smooth initial displacement bump.
struct BoxSetup {
  GllBasis basis{4};
  HexMesh mesh;
  MaterialFields mat;
  double dt_cfl = 0.0;

  explicit BoxSetup(int n = 4, double l = 1000.0) {
    CartesianBoxSpec spec;
    spec.nx = spec.ny = spec.nz = n;
    spec.lx = spec.ly = spec.lz = l;
    mesh = build_cartesian_box(spec, basis);
    const MaterialSample s = rock();
    mat = assign_materials(mesh,
                           [&](double, double, double) { return s; });
    auto q = analyze_mesh_quality(mesh, mat.vp, mat.vs);
    dt_cfl = q.dt_stable;
  }
};

std::array<double, 3> gaussian_bump(double x, double y, double z) {
  const double cx = 500.0, cy = 500.0, cz = 500.0, w = 150.0;
  const double r2 = ((x - cx) * (x - cx) + (y - cy) * (y - cy) +
                     (z - cz) * (z - cz)) /
                    (w * w);
  return {0.01 * std::exp(-r2), 0.0, 0.0};
}

TEST(Solver, NoSourceNoMotion) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = box.dt_cfl;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  sim.run(10);
  for (float v : sim.displ()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(sim.compute_energy().total(), 0.0);
}

TEST(Solver, EnergyConservedWithFreeSurfaces) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  sim.set_initial_condition(gaussian_bump);

  const double e0 = sim.compute_energy().total();
  ASSERT_GT(e0, 0.0);
  double max_dev = 0.0;
  for (int burst = 0; burst < 10; ++burst) {
    sim.run(20);
    const double e = sim.compute_energy().total();
    max_dev = std::max(max_dev, std::abs(e - e0) / e0);
  }
  // Explicit Newmark at half the Courant limit conserves energy to a
  // fraction of a percent over hundreds of steps.
  EXPECT_LT(max_dev, 5e-3);
}

TEST(Solver, EnergyPartitionsBetweenKineticAndPotential) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  sim.set_initial_condition(gaussian_bump);
  const EnergySnapshot initial = sim.compute_energy();
  EXPECT_GT(initial.potential, 0.0);
  EXPECT_EQ(initial.kinetic, 0.0);  // released from rest
  sim.run(50);
  const EnergySnapshot later = sim.compute_energy();
  EXPECT_GT(later.kinetic, 0.0);
}

TEST(Solver, UnstableAboveCourantLimit) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = 4.0 * box.dt_cfl;  // far beyond the stability bound
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  sim.set_initial_condition(gaussian_bump);
  const double e0 = sim.compute_energy().total();
  sim.run(100);
  const double e1 = sim.compute_energy().total();
  EXPECT_TRUE(e1 > 1e3 * e0 || std::isnan(e1) || std::isinf(e1));
}

TEST(Solver, PWaveArrivalTimeMatchesVelocity) {
  // Elongated bar; vertical point force at one end; P arrival at a
  // receiver 1500 m away along z must come at ~ d / vp.
  GllBasis basis(4);
  CartesianBoxSpec spec;
  spec.nx = spec.ny = 2;
  spec.nz = 10;
  spec.lx = spec.ly = 400.0;
  spec.lz = 2000.0;
  HexMesh mesh = build_cartesian_box(spec, basis);
  const MaterialSample s = rock();
  MaterialFields mat =
      assign_materials(mesh, [&](double, double, double) { return s; });
  auto q = analyze_mesh_quality(mesh, mat.vp, mat.vs);

  SimulationConfig cfg;
  cfg.dt = 0.5 * q.dt_stable;
  Simulation sim(mesh, basis, mat, cfg);

  PointSource src;
  src.x = 200.0;
  src.y = 200.0;
  src.z = 100.0;
  src.force = {0.0, 0.0, 1e9};
  const double f0 = 12.0, t0 = 0.1;
  src.stf = ricker_wavelet(f0, t0);
  sim.add_source(src);
  const double zrec = 1600.0;
  const int rec = sim.add_receiver(200.0, 200.0, zrec);

  const double travel = (zrec - src.z) / s.vp;
  const int nsteps = static_cast<int>((t0 + travel) / cfg.dt * 1.6);
  sim.run(nsteps);

  const Seismogram& seis = sim.seismogram(rec);
  double peak = 0.0;
  for (const auto& u : seis.displ)
    peak = std::max(peak, std::abs(u[2]));
  ASSERT_GT(peak, 0.0);
  double arrival = -1.0;
  for (std::size_t i = 0; i < seis.time.size(); ++i) {
    if (std::abs(seis.displ[i][2]) > 0.05 * peak) {
      arrival = seis.time[i];
      break;
    }
  }
  ASSERT_GT(arrival, 0.0);
  // Expected onset: source delay (~t0 - half period) + travel time.
  const double expected = t0 - 1.0 / f0 + travel;
  EXPECT_NEAR(arrival, expected, 0.35 * travel);
}

TEST(Solver, AttenuationDissipatesEnergyMonotonically) {
  BoxSetup box;
  SlsSeries sls = fit_constant_q(60.0, 1.0, 20.0, 3);
  prepare_attenuation(box.mat, sls);

  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  cfg.attenuation = true;
  cfg.sls = sls;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  sim.set_initial_condition(gaussian_bump);

  double prev = sim.compute_energy().total();
  const double e0 = prev;
  for (int burst = 0; burst < 8; ++burst) {
    sim.run(50);
    const double e = sim.compute_energy().total();
    EXPECT_LT(e, prev * 1.001) << "burst " << burst;
    prev = e;
  }
  EXPECT_LT(prev, 0.8 * e0);  // visible dissipation
}

TEST(Solver, LowerQDecaysFaster) {
  auto energy_after = [](double q_value) {
    BoxSetup box;
    for (auto& q : box.mat.q_mu) q = static_cast<float>(q_value);
    SlsSeries sls = fit_constant_q(q_value, 1.0, 20.0, 3);
    prepare_attenuation(box.mat, sls);
    SimulationConfig cfg;
    cfg.dt = 0.5 * box.dt_cfl;
    cfg.attenuation = true;
    cfg.sls = sls;
    Simulation sim(box.mesh, box.basis, box.mat, cfg);
    sim.set_initial_condition(gaussian_bump);
    const double e0 = sim.compute_energy().total();
    sim.run(400);
    return sim.compute_energy().total() / e0;
  };
  const double frac_q20 = energy_after(20.0);
  const double frac_q200 = energy_after(200.0);
  EXPECT_LT(frac_q20, frac_q200);
  EXPECT_LT(frac_q20, 0.5);
  EXPECT_GT(frac_q200, 0.6);
}

TEST(Solver, LoopOrderPermutationLeavesSeismogramsUnchanged) {
  // Paper §4.2: "the same mesh computed with different loop orders on the
  // elements give two sets of synthetic seismograms that are
  // indistinguishable when plotted superimposed."
  auto run_with_order = [](bool shuffle) {
    BoxSetup box;
    SimulationConfig cfg;
    cfg.dt = 0.5 * box.dt_cfl;
    Simulation sim(box.mesh, box.basis, box.mat, cfg);
    if (shuffle) {
      std::vector<int> order(static_cast<std::size_t>(box.mesh.nspec));
      std::iota(order.begin(), order.end(), 0);
      SplitMix64 rng(4321);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.next_below(i))]);
      sim.set_solid_element_order(order);
    }
    PointSource src;
    src.x = 300.0;
    src.y = 500.0;
    src.z = 500.0;
    src.force = {1e9, 0.0, 0.0};
    src.stf = ricker_wavelet(15.0, 0.08);
    sim.add_source(src);
    const int rec = sim.add_receiver(700.0, 500.0, 500.0);
    sim.run(300);
    return sim.seismogram(rec);
  };
  const Seismogram a = run_with_order(false);
  const Seismogram b = run_with_order(true);
  ASSERT_EQ(a.displ.size(), b.displ.size());
  double peak = 0.0;
  for (const auto& u : a.displ) peak = std::max(peak, std::abs(u[0]));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < a.displ.size(); ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_NEAR(a.displ[i][c], b.displ[i][c], 2e-5 * peak)
          << "i=" << i << " c=" << c;
}

TEST(Solver, MomentTensorExplosionIsSymmetric) {
  // Isotropic moment tensor at the box centre: ux at two receivers placed
  // symmetrically about the source must be opposite.
  BoxSetup box(5);
  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  PointSource src;
  src.x = src.y = src.z = 500.0;
  src.moment = {1e12, 1e12, 1e12, 0.0, 0.0, 0.0};
  src.stf = ricker_wavelet(15.0, 0.08);
  sim.add_source(src);
  const int rec_l = sim.add_receiver(250.0, 500.0, 500.0);
  const int rec_r = sim.add_receiver(750.0, 500.0, 500.0);
  sim.run(250);
  const Seismogram& sl = sim.seismogram(rec_l);
  const Seismogram& sr = sim.seismogram(rec_r);
  double peak = 0.0;
  for (const auto& u : sr.displ) peak = std::max(peak, std::abs(u[0]));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < sl.displ.size(); ++i)
    EXPECT_NEAR(sl.displ[i][0], -sr.displ[i][0], 0.02 * peak);
}

TEST(Solver, AbsorbingBoundariesDrainEnergy) {
  auto final_energy_fraction = [](bool absorb) {
    BoxSetup box;
    SimulationConfig cfg;
    cfg.dt = 0.5 * box.dt_cfl;
    if (absorb) cfg.absorbing_faces = find_boundary_faces(box.mesh);
    Simulation sim(box.mesh, box.basis, box.mat, cfg);
    sim.set_initial_condition(gaussian_bump);
    const double e0 = sim.compute_energy().total();
    sim.run(600);
    return sim.compute_energy().total() / e0;
  };
  const double absorbed = final_energy_fraction(true);
  const double free = final_energy_fraction(false);
  EXPECT_LT(absorbed, 0.10);  // Stacey drains the box
  EXPECT_GT(free, 0.95);      // free surfaces keep it
}

TEST(Solver, RotationPreservesStabilityAndBendsMotion) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  cfg.rotation = true;
  // Exaggerated rotation rate so the Coriolis effect is visible over a
  // short run (Earth's omega would need hours of simulated time).
  cfg.omega_rad_s = 0.2;
  Simulation rot(box.mesh, box.basis, box.mat, cfg);
  cfg.rotation = false;
  Simulation norot(box.mesh, box.basis, box.mat, cfg);

  rot.set_initial_condition(gaussian_bump);
  norot.set_initial_condition(gaussian_bump);
  rot.run(300);
  norot.run(300);

  // Stability: energy bounded (Coriolis does no work, but the explicit
  // coupling is only neutrally stable, so allow some slack).
  const double e_rot = rot.compute_energy().total();
  const double e_norot = norot.compute_energy().total();
  EXPECT_LT(e_rot, 1.5 * e_norot);
  EXPECT_GT(e_rot, 0.5 * e_norot);

  // The y-velocity field must differ (x-motion is deflected).
  double diff = 0.0, norm = 0.0;
  for (std::size_t g = 0; g < rot.veloc().size(); g += 3) {
    diff += std::abs(static_cast<double>(rot.veloc()[g + 1]) -
                     norot.veloc()[g + 1]);
    norm += std::abs(static_cast<double>(norot.veloc()[g]));
  }
  EXPECT_GT(diff, 1e-6 * norm);
}

TEST(Solver, ReceiverExactVsNearestAgreeOnGridPoint) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  PointSource src;
  src.x = 300.0;
  src.y = 500.0;
  src.z = 500.0;
  src.force = {1e9, 0.0, 0.0};
  src.stf = ricker_wavelet(15.0, 0.08);
  sim.add_source(src);
  // 750 is an element-corner lattice coordinate of the 4-element mesh.
  const int exact = sim.add_receiver(750.0, 500.0, 500.0, true);
  const int nearest = sim.add_receiver(750.0, 500.0, 500.0, false);
  sim.run(200);
  const Seismogram& se = sim.seismogram(exact);
  const Seismogram& sn = sim.seismogram(nearest);
  double peak = 0.0;
  for (const auto& u : se.displ) peak = std::max(peak, std::abs(u[0]));
  ASSERT_GT(peak, 0.0);
  for (std::size_t i = 0; i < se.displ.size(); ++i)
    EXPECT_NEAR(se.displ[i][0], sn.displ[i][0], 1e-6 * peak);
}

TEST(Solver, FlopsAndCommAccounting) {
  BoxSetup box;
  SimulationConfig cfg;
  cfg.dt = 0.5 * box.dt_cfl;
  Simulation sim(box.mesh, box.basis, box.mat, cfg);
  EXPECT_GT(sim.flops_per_step(), 1000000u);  // 64 elements x ~50 kflops
  EXPECT_EQ(sim.comm_bytes_per_step(), 0u);   // serial: no exchange
  EXPECT_EQ(sim.num_solid_elements(), 64);
  EXPECT_EQ(sim.num_fluid_elements(), 0);
}

TEST(Solver, ConfigValidation) {
  BoxSetup box;
  SimulationConfig cfg;  // dt == 0
  EXPECT_THROW(Simulation(box.mesh, box.basis, box.mat, cfg), CheckError);

  cfg.dt = 1.0;
  cfg.attenuation = true;  // no SLS provided
  EXPECT_THROW(Simulation(box.mesh, box.basis, box.mat, cfg), CheckError);

  // step() records every record_every steps: 0 would divide by zero.
  cfg.attenuation = false;
  for (int every : {0, -1}) {
    cfg.record_every = every;
    EXPECT_THROW(Simulation(box.mesh, box.basis, box.mat, cfg), CheckError)
        << "record_every = " << every;
  }
}

TEST(Solver, SourceInFluidRejected) {
  GllBasis basis(4);
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = 2;
  spec.lx = spec.ly = spec.lz = 1000.0;
  HexMesh mesh = build_cartesian_box(spec, basis);
  MaterialSample water;
  water.rho = 1000.0;
  water.vp = 1500.0;
  water.vs = 0.0;
  MaterialFields mat =
      assign_materials(mesh, [&](double, double, double) { return water; });
  SimulationConfig cfg;
  cfg.dt = 1e-3;
  Simulation sim(mesh, basis, mat, cfg);
  PointSource src;
  src.x = src.y = src.z = 500.0;
  src.force = {1.0, 0.0, 0.0};
  src.stf = ricker_wavelet(10.0, 0.1);
  EXPECT_THROW(sim.add_source(src), CheckError);
}

}  // namespace
}  // namespace sfg
