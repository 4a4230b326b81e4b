#include "solver/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/log.hpp"
#include "io/blob_store.hpp"
#include "mesh/coloring.hpp"
#include "mesh/numbering.hpp"
#include "mesh/rcm.hpp"

namespace sfg {

Simulation::ThreadScratch::ThreadScratch(int ngll, int lanes,
                                         bool attenuation)
    : bws(ngll, lanes) {
  if (attenuation)
    for (auto& comp : r_sum_soa) comp.assign(bws.stride, 0.0f);
}

Simulation::Simulation(const HexMesh& mesh, const GllBasis& basis,
                       MaterialFields materials, SimulationConfig config,
                       smpi::Communicator* comm,
                       const smpi::Exchanger* exchanger)
    : mesh_(mesh),
      basis_(basis),
      mat_(std::move(materials)),
      cfg_(std::move(config)),
      comm_(comm),
      exchanger_(exchanger),
      kernel_(basis, KernelVariant::Batched, cfg_.attenuation),
      profile_(cfg_.metrics.enabled, cfg_.metrics.timeline,
               cfg_.metrics.max_timeline_events) {
  SFG_CHECK(mesh_.numbered() && mesh_.has_jacobians());
  SFG_CHECK(mat_.size() == mesh_.num_local_points());
  SFG_CHECK_MSG(cfg_.dt > 0.0, "time step must be positive");
  SFG_CHECK_MSG((comm_ == nullptr) == (exchanger_ == nullptr),
                "parallel runs need both a communicator and an exchanger");
  SFG_CHECK_MSG(cfg_.num_threads >= 1, "num_threads must be at least 1");
  SFG_CHECK_MSG(cfg_.record_every >= 1, "record_every must be at least 1");

  // One-line report of the batched backend this CPU dispatched to.
  SFG_INFO("force kernel: isa=" << simd::isa_name(kernel_.isa())
                                << " lanes=" << kernel_.lanes());

  for (int e = 0; e < mesh_.nspec; ++e) {
    if (mat_.element_is_fluid[static_cast<std::size_t>(e)])
      fluid_elements_.push_back(e);
    else
      solid_elements_.push_back(e);
  }

  // The fluid phase exchanges chi_ddot across ranks, so every rank must
  // take part whenever ANY rank carries fluid elements — a rank whose
  // slice happens to be all-solid still contributes (zero) halo values.
  global_has_fluid_ = !fluid_elements_.empty();
  if (comm_ != nullptr)
    global_has_fluid_ = comm_->allreduce_one<std::uint64_t>(
                            global_has_fluid_ ? 1 : 0, smpi::ReduceOp::Max) !=
                        0;

  // Clustered LTS partition (ISSUE 7): built before the schedule variant
  // resolves because a multi-cluster run forces a colored schedule.
  build_cluster_partition_lts();

  scratch_.reserve(static_cast<std::size_t>(cfg_.num_threads));
  for (int t = 0; t < cfg_.num_threads; ++t)
    scratch_.push_back(std::make_unique<ThreadScratch>(
        basis.num_points(), kernel_.lanes(), cfg_.attenuation));
  if (cfg_.num_threads > 1)
    pool_ = std::make_unique<ThreadPool>(cfg_.num_threads);

  // Resolve the schedule variant. Auto keeps the legacy loop at one
  // thread and one cluster; threaded runs need the race-free color rounds,
  // and multi-cluster LTS runs through per-rate element schedules.
  schedule_ = cfg_.schedule;
  if (schedule_ == SolverSchedule::Auto)
    schedule_ = cfg_.num_threads > 1 || lts_num_levels_ > 1
                    ? SolverSchedule::Colored
                    : SolverSchedule::Sequential;
  SFG_CHECK_MSG(
      schedule_ != SolverSchedule::Sequential || cfg_.num_threads == 1,
      "the sequential schedule requires num_threads == 1");
  SFG_CHECK_MSG(
      schedule_ != SolverSchedule::Sequential || lts_num_levels_ == 1,
      "multi-cluster LTS requires a colored schedule");

  const auto ng = static_cast<std::size_t>(mesh_.nglob);
  displ_.assign(ng * 3, 0.0f);
  veloc_.assign(ng * 3, 0.0f);
  accel_.assign(ng * 3, 0.0f);
  if (global_has_fluid_) {
    chi_.assign(ng, 0.0f);
    chi_dot_.assign(ng, 0.0f);
    chi_ddot_.assign(ng, 0.0f);
  }

  if (cfg_.attenuation) {
    SFG_CHECK_MSG(cfg_.sls.has_value(),
                  "attenuation requires a fitted SlsSeries in the config");
    SFG_CHECK_MSG(!mat_.mu_relaxed.empty(),
                  "attenuation requires prepare_attenuation() on materials");
    const SlsSeries& sls = *cfg_.sls;
    SFG_CHECK(sls.num_sls() <= 10);
    r_mem_.resize(static_cast<std::size_t>(sls.num_sls()));
    const std::size_t n = mesh_.num_local_points();
    for (auto& per_sls : r_mem_)
      for (auto& comp : per_sls) comp.assign(n, 0.0f);
    att_factor_.assign(n, 0.0f);
    for (std::size_t p = 0; p < n; ++p) {
      const float q = mat_.q_mu[p];
      if (q > 0.0f && mat_.mu_relaxed[p] > 0.0f)
        att_factor_[p] = static_cast<float>(
            2.0 * mat_.mu_relaxed[p] * (sls.target_q / q));
    }
    for (int l = 0; l < sls.num_sls(); ++l) {
      const double a =
          std::exp(-cfg_.dt / sls.tau_sigma[static_cast<std::size_t>(l)]);
      exp_a_[l] = a;
      one_minus_a_[l] = 1.0 - a;
    }
  }

  if (cfg_.rotation) SFG_CHECK(cfg_.omega_rad_s != 0.0);

  if (cfg_.gravity) {
    SFG_CHECK_MSG(cfg_.gravity_model != nullptr,
                  "gravity requires an EarthModel for g(r)");
    const EarthModel& em = *cfg_.gravity_model;
    const std::size_t n = mesh_.num_local_points();
    grav_g_.assign(n, 0.0f);
    grav_dgdr_.assign(n, 0.0f);
    grav_drhodr_.assign(n, 0.0f);
    grav_rx_.assign(n, 0.0f);
    grav_ry_.assign(n, 0.0f);
    grav_rz_.assign(n, 0.0f);
    grav_invr_.assign(n, 0.0f);
    w3jac_.assign(n, 0.0f);
    const double dr = 1000.0;  // finite-difference step for dg/dr, drho/dr
    const int ngll3 = mesh_.ngll3();
    for (int e = 0; e < mesh_.nspec; ++e) {
      // Element radial midpoint: density derivatives are sampled one-sided
      // TOWARD the element interior so that model discontinuities (the CMB
      // density jump!) never contaminate the smooth-layer derivative.
      const std::size_t off = mesh_.local_offset(e);
      double r_mid = 0.0;
      for (int pp = 0; pp < ngll3; ++pp) {
        const std::size_t q = off + static_cast<std::size_t>(pp);
        r_mid += std::sqrt(mesh_.xstore[q] * mesh_.xstore[q] +
                           mesh_.ystore[q] * mesh_.ystore[q] +
                           mesh_.zstore[q] * mesh_.zstore[q]);
      }
      r_mid /= ngll3;
      for (int pp = 0; pp < ngll3; ++pp) {
        const std::size_t p = off + static_cast<std::size_t>(pp);
        const double x = mesh_.xstore[p], y = mesh_.ystore[p],
                     z = mesh_.zstore[p];
        const double r = std::sqrt(x * x + y * y + z * z);
        SFG_CHECK_MSG(r > 10.0 * dr, "gravity needs a spherical shell mesh");
        grav_g_[p] = static_cast<float>(em.gravity(r));
        grav_dgdr_[p] = static_cast<float>(
            (em.gravity(r + dr) - em.gravity(r - dr)) / (2.0 * dr));
        const double inward = r_mid > r ? dr : -dr;
        grav_drhodr_[p] = static_cast<float>(
            (em.at_radius(r + inward).rho - em.at_radius(r).rho) / inward);
        grav_rx_[p] = static_cast<float>(x / r);
        grav_ry_[p] = static_cast<float>(y / r);
        grav_rz_[p] = static_cast<float>(z / r);
        grav_invr_[p] = static_cast<float>(1.0 / r);
      }
    }
    const int ngll = mesh_.ngll;
    for (int e = 0; e < mesh_.nspec; ++e) {
      const std::size_t off = mesh_.local_offset(e);
      for (int k = 0; k < ngll; ++k)
        for (int j = 0; j < ngll; ++j)
          for (int i = 0; i < ngll; ++i) {
            const std::size_t p =
                off + static_cast<std::size_t>(local_index(ngll, i, j, k));
            w3jac_[p] = static_cast<float>(basis_.weight(i) *
                                           basis_.weight(j) *
                                           basis_.weight(k) *
                                           mesh_.jacobian[p]);
          }
    }
  }

  build_mass_matrices();
  build_coupling_surface();
  build_absorbing_points();
  build_colored_schedule();
}

void Simulation::build_colored_schedule() {
  sched_boundary_ = ClusterSchedule{};
  sched_interior_ = ClusterSchedule{};
  sched_fluid_ = ElementSchedule{};
  packed_boundary_.clear();
  packed_interior_.clear();
  packed_fluid_ = PackedBatches{};
  packed_seq_solid_ = PackedBatches{};
  packed_seq_fluid_ = PackedBatches{};
  num_boundary_elements_ = 0;
  if (schedule_ == SolverSchedule::Sequential) {
    // Consecutive legacy-order runs. Lanes are arithmetically independent
    // and scattered one by one in item order, so the per-point summation
    // order is exactly the legacy element loop's.
    packed_seq_solid_ = pack_sequential(solid_elements_);
    packed_seq_fluid_ = pack_sequential(fluid_elements_);
    return;
  }

  // Color in the current processing order so a caller-supplied RCM /
  // multilevel order (§4.2 cache blocking) survives inside each color.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(mesh_.nspec));
  for (int e : solid_elements_) order.push_back(e);
  for (int e : fluid_elements_) order.push_back(e);
  const std::vector<std::vector<int>> adjacency = element_adjacency(mesh_);
  const std::vector<int> color_of = greedy_element_coloring(adjacency, order);

  // Split solid elements into boundary (touch a halo point per the
  // exchanger's interface lists) and interior sets; interior elements are
  // free to compute while the halo exchange is in flight.
  std::vector<char> halo_point(static_cast<std::size_t>(mesh_.nglob), 0);
  if (exchanger_ != nullptr) {
    for (const smpi::Interface& iface : exchanger_->interfaces())
      for (int p : iface.local_points)
        halo_point[static_cast<std::size_t>(p)] = 1;
  }
  const int n3 = mesh_.ngll3();
  auto touches_halo = [&](int e) {
    const int* ib = mesh_.ibool.data() + mesh_.local_offset(e);
    for (int p = 0; p < n3; ++p)
      if (halo_point[static_cast<std::size_t>(ib[p])]) return true;
    return false;
  };
  std::vector<int> boundary, interior;
  for (int e : solid_elements_)
    (touches_halo(e) ? boundary : interior).push_back(e);
  num_boundary_elements_ = static_cast<int>(boundary.size());

  // Color rounds. Every list scheduled below is a subsequence of `order`,
  // so elements inside each color keep the legacy processing order (the
  // mesher's §4.2 cache-blocked storage order). The schedule invariants
  // are re-proven here against the built result, so a broken builder can
  // never reach the time loop.
  ScheduleOptions opts;
  opts.num_slots = cfg_.num_threads;
  opts.batch_lanes = kernel_.lanes();

  auto build_checked = [&](const std::vector<int>& elems) {
    ElementSchedule s = build_element_schedule(mesh_, elems, color_of, opts);
    const std::string err =
        check_element_schedule(mesh_, elems, color_of, s);
    SFG_CHECK_MSG(err.empty(), "schedule invariant violated: " << err);
    return s;
  };
  // One checked schedule per marching rate. The Simulation refuses to
  // march on any schedule the cluster checker rejects (invariants
  // C-A..C-B); one cluster is a single rate-0 schedule.
  auto build_rates = [&](const std::vector<int>& elems) {
    ClusterSchedule cs;
    if (lts_num_levels_ == 1) {
      cs.rates = {0};
      cs.rate_elements = {elems};
      cs.rate_sched.push_back(build_checked(elems));
      return cs;
    }
    cs = build_cluster_schedule(mesh_, elems, color_of, lts_part_, opts,
                                cfg_.lts.cluster);
    const std::string err =
        check_cluster_schedule(mesh_, elems, color_of, lts_part_, cs);
    SFG_CHECK_MSG(err.empty(), "cluster schedule invariant violated: " << err);
    return cs;
  };
  sched_boundary_ = build_rates(boundary);
  sched_interior_ = build_rates(interior);
  sched_fluid_ = build_checked(fluid_elements_);
  for (const ElementSchedule& s : sched_boundary_.rate_sched)
    packed_boundary_.push_back(pack_batches(s.items, s.batch_cut));
  for (const ElementSchedule& s : sched_interior_.rate_sched)
    packed_interior_.push_back(pack_batches(s.items, s.batch_cut));
  packed_fluid_ = pack_batches(sched_fluid_.items, sched_fluid_.batch_cut);
}

Simulation::PackedBatches Simulation::pack_batches(
    const std::vector<int>& items, const std::vector<std::size_t>& cut) const {
  PackedBatches pb;
  pb.lanes = kernel_.lanes();
  const int lanes = pb.lanes;
  pb.stride = static_cast<std::size_t>(
                  padded_block_size(mesh_.ngll, lanes)) *
              static_cast<std::size_t>(lanes);
  pb.cut = cut;
  const std::size_t nb = cut.empty() ? 0 : cut.size() - 1;
  pb.elems.assign(nb * static_cast<std::size_t>(lanes), -1);
  pb.counts.assign(nb, 0);
  const std::size_t total = nb * pb.stride;
  for (auto* v : {&pb.xix, &pb.xiy, &pb.xiz, &pb.etax, &pb.etay, &pb.etaz,
                  &pb.gammax, &pb.gammay, &pb.gammaz, &pb.jacobian,
                  &pb.kappav, &pb.muv, &pb.rho})
    v->assign(total, 0.0f);
  if (cfg_.gravity)
    for (auto* v : {&pb.grav_g, &pb.grav_dgdr, &pb.grav_drhodr, &pb.grav_rx,
                    &pb.grav_ry, &pb.grav_rz, &pb.grav_invr})
      v->assign(total, 0.0f);

  const int n3 = mesh_.ngll3();
  for (std::size_t b = 0; b < nb; ++b) {
    const std::size_t b0 = cut[b];
    const std::size_t count = cut[b + 1] - b0;
    SFG_CHECK(count >= 1 && count <= static_cast<std::size_t>(lanes));
    pb.counts[b] = static_cast<int>(count);
    for (int l = 0; l < lanes; ++l) {
      const bool real = static_cast<std::size_t>(l) < count;
      // Pad lanes replicate lane 0's tables: valid numerics everywhere,
      // and their results are simply never scattered.
      const int e = items[b0 + (real ? static_cast<std::size_t>(l) : 0)];
      if (real) pb.elems[b * static_cast<std::size_t>(lanes) +
                         static_cast<std::size_t>(l)] = e;
      const std::size_t off = mesh_.local_offset(e);
      auto pack = [&](const float* src, aligned_vector<float>& dst) {
        float* d = dst.data() + b * pb.stride + static_cast<std::size_t>(l);
        for (int p = 0; p < n3; ++p)
          d[static_cast<std::size_t>(p) * static_cast<std::size_t>(lanes)] =
              src[p];
      };
      pack(mesh_.xix.data() + off, pb.xix);
      pack(mesh_.xiy.data() + off, pb.xiy);
      pack(mesh_.xiz.data() + off, pb.xiz);
      pack(mesh_.etax.data() + off, pb.etax);
      pack(mesh_.etay.data() + off, pb.etay);
      pack(mesh_.etaz.data() + off, pb.etaz);
      pack(mesh_.gammax.data() + off, pb.gammax);
      pack(mesh_.gammay.data() + off, pb.gammay);
      pack(mesh_.gammaz.data() + off, pb.gammaz);
      pack(mesh_.jacobian.data() + off, pb.jacobian);
      pack(mat_.kappav.data() + off, pb.kappav);
      pack(mat_.muv.data() + off, pb.muv);
      pack(mat_.rho.data() + off, pb.rho);
      if (cfg_.gravity) {
        pack(grav_g_.data() + off, pb.grav_g);
        pack(grav_dgdr_.data() + off, pb.grav_dgdr);
        pack(grav_drhodr_.data() + off, pb.grav_drhodr);
        pack(grav_rx_.data() + off, pb.grav_rx);
        pack(grav_ry_.data() + off, pb.grav_ry);
        pack(grav_rz_.data() + off, pb.grav_rz);
        pack(grav_invr_.data() + off, pb.grav_invr);
      }
    }
  }
  return pb;
}

Simulation::PackedBatches Simulation::pack_sequential(
    const std::vector<int>& elems) const {
  const auto lanes = static_cast<std::size_t>(kernel_.lanes());
  std::vector<std::size_t> cut{0};
  while (cut.back() < elems.size())
    cut.push_back(std::min(elems.size(), cut.back() + lanes));
  return pack_batches(elems, cut);
}

void Simulation::build_mass_matrices() {
  const auto ng = static_cast<std::size_t>(mesh_.nglob);
  aligned_vector<float> mass_solid(ng, 0.0f);
  aligned_vector<float> mass_fluid(ng, 0.0f);
  const int ngll = mesh_.ngll;

  auto accumulate = [&](int e, aligned_vector<float>& mass, bool fluid) {
    const std::size_t off = mesh_.local_offset(e);
    for (int k = 0; k < ngll; ++k) {
      for (int j = 0; j < ngll; ++j) {
        for (int i = 0; i < ngll; ++i) {
          const std::size_t p =
              off + static_cast<std::size_t>(local_index(ngll, i, j, k));
          const double w3 =
              basis_.weight(i) * basis_.weight(j) * basis_.weight(k);
          const double jac = mesh_.jacobian[p];
          // Solid mass density rho; fluid "mass" is 1/kappa (the weak form
          // of (1/kappa) chi_ddot).
          const double density =
              fluid ? 1.0 / mat_.kappav[p] : mat_.rho[p];
          mass[static_cast<std::size_t>(mesh_.ibool[p])] +=
              static_cast<float>(w3 * jac * density);
        }
      }
    }
  };
  for (int e : solid_elements_) accumulate(e, mass_solid, false);
  for (int e : fluid_elements_) accumulate(e, mass_fluid, true);

  // Assemble across ranks so shared points carry the full mass. The fluid
  // exchange must run on every rank or on none (it is pairwise with all
  // neighbours), so it is gated on the GLOBAL fluid flag, not the local
  // element list — an all-solid slice of a mesh with an outer core still
  // participates with zero contributions.
  if (exchanger_ != nullptr) {
    exchanger_->assemble_add(*comm_, mass_solid.data(), 1);
    if (global_has_fluid_)
      exchanger_->assemble_add(*comm_, mass_fluid.data(), 1);
  }

  rmass_inv_solid_.assign(ng, 0.0f);
  rmass_inv_fluid_.assign(ng, 0.0f);
  for (std::size_t g = 0; g < ng; ++g) {
    if (mass_solid[g] > 0.0f) rmass_inv_solid_[g] = 1.0f / mass_solid[g];
    if (mass_fluid[g] > 0.0f) rmass_inv_fluid_[g] = 1.0f / mass_fluid[g];
  }
}

void Simulation::build_coupling_surface() {
  if (fluid_elements_.empty() || solid_elements_.empty()) return;
  const auto faces = find_interface_faces(mesh_, mat_.element_is_fluid);
  for (const ElementFace& ef : faces) {
    const FaceData fd = compute_face_data(mesh_, basis_, ef.ispec, ef.face);
    const std::size_t off = mesh_.local_offset(ef.ispec);
    for (std::size_t q = 0; q < fd.local_points.size(); ++q) {
      CouplingPoint cp;
      cp.iglob = mesh_.ibool[off + static_cast<std::size_t>(
                                       fd.local_points[q])];
      cp.nx = fd.normals[q][0];
      cp.ny = fd.normals[q][1];
      cp.nz = fd.normals[q][2];
      cp.weight = fd.weights[q];
      coupling_.push_back(cp);
    }
  }
}

void Simulation::build_absorbing_points() {
  for (const ElementFace& ef : cfg_.absorbing_faces) {
    const FaceData fd = compute_face_data(mesh_, basis_, ef.ispec, ef.face);
    const std::size_t off = mesh_.local_offset(ef.ispec);
    for (std::size_t q = 0; q < fd.local_points.size(); ++q) {
      AbsorbingPoint ap;
      ap.local = off + static_cast<std::size_t>(fd.local_points[q]);
      ap.iglob = mesh_.ibool[ap.local];
      ap.nx = fd.normals[q][0];
      ap.ny = fd.normals[q][1];
      ap.nz = fd.normals[q][2];
      ap.weight = fd.weights[q];
      absorbing_.push_back(ap);
    }
  }
}

void Simulation::add_source(const PointSource& source) {
  DiscreteSource ds = discretize_source(mesh_, basis_, source);
  SFG_CHECK_MSG(
      !mat_.element_is_fluid[static_cast<std::size_t>(ds.ispec)],
      "sources must lie in the solid region");
  sources_.push_back(std::move(ds));
}

int Simulation::add_receiver(double x, double y, double z, bool exact) {
  ReceiverState rs;
  rs.loc = exact ? locate_point_exact(mesh_, basis_, x, y, z)
                 : locate_point_nearest(mesh_, basis_, x, y, z);
  const std::vector<double> w = interpolation_weights(basis_, rs.loc);
  const std::size_t off = mesh_.local_offset(rs.loc.ispec);
  for (int p = 0; p < mesh_.ngll3(); ++p) {
    // Skip negligible weights to keep the per-step cost of exact stations
    // visible but bounded; nearest stations reduce to a single node.
    if (std::abs(w[static_cast<std::size_t>(p)]) < 1e-14) continue;
    rs.node_glob.push_back(mesh_.ibool[off + static_cast<std::size_t>(p)]);
    rs.weights.push_back(w[static_cast<std::size_t>(p)]);
  }
  receivers_.push_back(std::move(rs));
  return static_cast<int>(receivers_.size()) - 1;
}

// Deterministic owner election for points on slice boundaries (ISSUE 3
// bugfix). A source/receiver sitting exactly on a shared interface locates
// with (near-)identical error on every adjacent rank; without a collective
// decision each of them would add it and the injected amplitude scales
// with the number of claimants. Elect by allreduce-Min on the location
// error, then break ties (floating-point-identical errors on shared faces
// are the common case, not the exception) by lowest rank.
bool Simulation::elect_owner(double error_m) const {
  if (comm_ == nullptr) return true;
  const double best = comm_->allreduce_one(error_m, smpi::ReduceOp::Min);
  // Everything within a whisker of the best error is a claimant; the
  // relative slack absorbs cross-rank rounding in the Newton locate.
  const double slack = 1e-9 * (1.0 + std::abs(best));
  const std::int64_t claim =
      error_m <= best + slack ? comm_->rank()
                              : std::numeric_limits<std::int64_t>::max();
  return comm_->allreduce_one(claim, smpi::ReduceOp::Min) == comm_->rank();
}

bool Simulation::add_source_global(const PointSource& source) {
  const LocatedPoint loc =
      locate_point_exact(mesh_, basis_, source.x, source.y, source.z);
  if (!elect_owner(loc.error_m)) return false;
  add_source(source);
  return true;
}

int Simulation::add_receiver_global(double x, double y, double z,
                                    bool exact) {
  const LocatedPoint loc = exact ? locate_point_exact(mesh_, basis_, x, y, z)
                                 : locate_point_nearest(mesh_, basis_, x, y, z);
  if (!elect_owner(loc.error_m)) return -1;
  return add_receiver(x, y, z, exact);
}

void Simulation::set_solid_element_order(const std::vector<int>& order) {
  SFG_CHECK_MSG(order.size() == solid_elements_.size(),
                "order must cover exactly the solid elements");
  std::vector<bool> seen(static_cast<std::size_t>(mesh_.nspec), false);
  for (int e : order) {
    SFG_CHECK(e >= 0 && e < mesh_.nspec);
    SFG_CHECK_MSG(!mat_.element_is_fluid[static_cast<std::size_t>(e)] &&
                      !seen[static_cast<std::size_t>(e)],
                  "order must be a permutation of the solid elements");
    seen[static_cast<std::size_t>(e)] = true;
  }
  solid_elements_ = order;
  build_colored_schedule();
}

void Simulation::set_initial_condition(
    const std::function<std::array<double, 3>(double, double, double)>&
        displ_at,
    const std::function<std::array<double, 3>(double, double, double)>&
        veloc_at) {
  SFG_CHECK(displ_at != nullptr);
  const GlobalCoordinates gc = global_coordinates(mesh_);
  for (std::size_t g = 0; g < static_cast<std::size_t>(mesh_.nglob); ++g) {
    const auto u = displ_at(gc.x[g], gc.y[g], gc.z[g]);
    displ_[g * 3 + 0] = static_cast<float>(u[0]);
    displ_[g * 3 + 1] = static_cast<float>(u[1]);
    displ_[g * 3 + 2] = static_cast<float>(u[2]);
    if (veloc_at) {
      const auto v = veloc_at(gc.x[g], gc.y[g], gc.z[g]);
      veloc_[g * 3 + 0] = static_cast<float>(v[0]);
      veloc_[g * 3 + 1] = static_cast<float>(v[1]);
      veloc_[g * 3 + 2] = static_cast<float>(v[2]);
    }
  }
}

ElementPointers Simulation::element_pointers(int ispec) const {
  const std::size_t off = mesh_.local_offset(ispec);
  ElementPointers ep;
  ep.xix = mesh_.xix.data() + off;
  ep.xiy = mesh_.xiy.data() + off;
  ep.xiz = mesh_.xiz.data() + off;
  ep.etax = mesh_.etax.data() + off;
  ep.etay = mesh_.etay.data() + off;
  ep.etaz = mesh_.etaz.data() + off;
  ep.gammax = mesh_.gammax.data() + off;
  ep.gammay = mesh_.gammay.data() + off;
  ep.gammaz = mesh_.gammaz.data() + off;
  ep.jacobian = mesh_.jacobian.data() + off;
  ep.kappav = mat_.kappav.data() + off;
  ep.muv = mat_.muv.data() + off;
  ep.rho = mat_.rho.data() + off;
  if (cfg_.gravity) {
    ep.grav_g = grav_g_.data() + off;
    ep.grav_dgdr = grav_dgdr_.data() + off;
    ep.grav_drhodr = grav_drhodr_.data() + off;
    ep.grav_rx = grav_rx_.data() + off;
    ep.grav_ry = grav_ry_.data() + off;
    ep.grav_rz = grav_rz_.data() + off;
    ep.grav_invr = grav_invr_.data() + off;
  }
  return ep;
}

BatchPointers Simulation::batch_pointers(const PackedBatches& pb,
                                         std::size_t b) const {
  const std::size_t off = b * pb.stride;
  BatchPointers bp;
  bp.xix = pb.xix.data() + off;
  bp.xiy = pb.xiy.data() + off;
  bp.xiz = pb.xiz.data() + off;
  bp.etax = pb.etax.data() + off;
  bp.etay = pb.etay.data() + off;
  bp.etaz = pb.etaz.data() + off;
  bp.gammax = pb.gammax.data() + off;
  bp.gammay = pb.gammay.data() + off;
  bp.gammaz = pb.gammaz.data() + off;
  bp.jacobian = pb.jacobian.data() + off;
  bp.kappav = pb.kappav.data() + off;
  bp.muv = pb.muv.data() + off;
  bp.rho = pb.rho.data() + off;
  if (cfg_.gravity) {
    bp.grav_g = pb.grav_g.data() + off;
    bp.grav_dgdr = pb.grav_dgdr.data() + off;
    bp.grav_drhodr = pb.grav_drhodr.data() + off;
    bp.grav_rx = pb.grav_rx.data() + off;
    bp.grav_ry = pb.grav_ry.data() + off;
    bp.grav_rz = pb.grav_rz.data() + off;
    bp.grav_invr = pb.grav_invr.data() + off;
  }
  return bp;
}

// One element's displacement for the single-element kernel API (energy
// accounting); the time loop gathers whole batches instead.
void Simulation::gather_element_displ(int ispec, KernelWorkspace& ws) {
  const int* ib = mesh_.ibool.data() + mesh_.local_offset(ispec);
  const int n3 = mesh_.ngll3();
  const float* d = displ_.data();
  float* ux = ws.ux.data();
  float* uy = ws.uy.data();
  float* uz = ws.uz.data();
  for (int p = 0; p < n3; ++p) {
    const std::size_t g = static_cast<std::size_t>(ib[p]) * 3;
    ux[p] = d[g + 0];
    uy[p] = d[g + 1];
    uz[p] = d[g + 2];
  }
}

void Simulation::process_fluid_batch(const PackedBatches& pb, std::size_t b,
                                     ThreadScratch& scratch) {
  BatchWorkspace& ws = scratch.bws;
  const int lanes = pb.lanes;
  const int count = pb.counts[b];
  const int n3 = mesh_.ngll3();
  const auto ln = static_cast<std::size_t>(lanes);

  const float* c = chi_.data();
  for (int l = 0; l < lanes; ++l) {
    // Pad lanes replicate lane 0 (never scattered).
    const int e =
        pb.elems[b * ln + static_cast<std::size_t>(l < count ? l : 0)];
    const int* ib = mesh_.ibool.data() + mesh_.local_offset(e);
    float* wchi = ws.chi.data() + static_cast<std::size_t>(l);
    for (int p = 0; p < n3; ++p)
      wchi[static_cast<std::size_t>(p) * ln] =
          c[static_cast<std::size_t>(ib[p])];
  }

  kernel_.compute_acoustic_batched(batch_pointers(pb, b), ws);

  float* cdd = chi_ddot_.data();
  for (int l = 0; l < count; ++l) {
    const int e = pb.elems[b * ln + static_cast<std::size_t>(l)];
    const int* ib = mesh_.ibool.data() + mesh_.local_offset(e);
    const float* fchi = ws.fchi.data() + static_cast<std::size_t>(l);
    for (int p = 0; p < n3; ++p)
      cdd[static_cast<std::size_t>(ib[p])] +=
          fchi[static_cast<std::size_t>(p) * ln];
  }
}

void Simulation::process_solid_batch(const PackedBatches& pb, std::size_t b,
                                     ThreadScratch& scratch) {
  BatchWorkspace& ws = scratch.bws;
  const int lanes = pb.lanes;
  const int count = pb.counts[b];
  const int n3 = mesh_.ngll3();
  const auto ln = static_cast<std::size_t>(lanes);

  // Gather: real lanes from their elements, pad lanes replicate lane 0
  // (their results are never scattered).
  const float* d = displ_.data();
  for (int l = 0; l < lanes; ++l) {
    const int e = pb.elems[b * ln + static_cast<std::size_t>(l < count ? l : 0)];
    const int* ib = mesh_.ibool.data() + mesh_.local_offset(e);
    float* ux = ws.ux.data() + static_cast<std::size_t>(l);
    float* uy = ws.uy.data() + static_cast<std::size_t>(l);
    float* uz = ws.uz.data() + static_cast<std::size_t>(l);
    for (int p = 0; p < n3; ++p) {
      const std::size_t g = static_cast<std::size_t>(ib[p]) * 3;
      const std::size_t q = static_cast<std::size_t>(p) * ln;
      ux[q] = d[g + 0];
      uy[q] = d[g + 1];
      uz[q] = d[g + 2];
    }
  }

  BatchPointers bp = batch_pointers(pb, b);
  if (cfg_.attenuation) {
    // Strided memory-variable pre-sums over the SLSs, per lane (pad lanes
    // stay zero — harmless, never scattered).
    const std::size_t used = static_cast<std::size_t>(n3) * ln;
    for (auto& comp : scratch.r_sum_soa)
      std::fill(comp.data(), comp.data() + used, 0.0f);
    for (int l = 0; l < count; ++l) {
      const int e = pb.elems[b * ln + static_cast<std::size_t>(l)];
      const std::size_t off = mesh_.local_offset(e);
      float* sxx = scratch.r_sum_soa[0].data() + static_cast<std::size_t>(l);
      float* syy = scratch.r_sum_soa[1].data() + static_cast<std::size_t>(l);
      float* szz = scratch.r_sum_soa[2].data() + static_cast<std::size_t>(l);
      float* sxy = scratch.r_sum_soa[3].data() + static_cast<std::size_t>(l);
      float* sxz = scratch.r_sum_soa[4].data() + static_cast<std::size_t>(l);
      float* syz = scratch.r_sum_soa[5].data() + static_cast<std::size_t>(l);
      for (const auto& rl : r_mem_) {
        const float* rxx = rl[0].data() + off;
        const float* ryy = rl[1].data() + off;
        const float* rxy = rl[2].data() + off;
        const float* rxz = rl[3].data() + off;
        const float* ryz = rl[4].data() + off;
        for (int p = 0; p < n3; ++p) {
          const std::size_t q = static_cast<std::size_t>(p) * ln;
          sxx[q] += rxx[p];
          syy[q] += ryy[p];
          szz[q] -= rxx[p] + ryy[p];  // deviatoric: R_zz = -(R_xx + R_yy)
          sxy[q] += rxy[p];
          sxz[q] += rxz[p];
          syz[q] += ryz[p];
        }
      }
    }
    for (int c6 = 0; c6 < 6; ++c6)
      bp.r_sum[c6] = scratch.r_sum_soa[static_cast<std::size_t>(c6)].data();
  }

  kernel_.compute_elastic_batched(bp, ws);

  // Scatter real lanes one by one in item order: the per-point summation
  // order is the item order, whatever the lane count.
  float* a = accel_.data();
  for (int l = 0; l < count; ++l) {
    const int e = pb.elems[b * ln + static_cast<std::size_t>(l)];
    const std::size_t off = mesh_.local_offset(e);
    const int* ib = mesh_.ibool.data() + off;
    const float* fx = ws.fx.data() + static_cast<std::size_t>(l);
    const float* fy = ws.fy.data() + static_cast<std::size_t>(l);
    const float* fz = ws.fz.data() + static_cast<std::size_t>(l);
    for (int p = 0; p < n3; ++p) {
      const std::size_t g = static_cast<std::size_t>(ib[p]) * 3;
      const std::size_t q = static_cast<std::size_t>(p) * ln;
      a[g + 0] += fx[q];
      a[g + 1] += fy[q];
      a[g + 2] += fz[q];
    }
    if (cfg_.gravity) {
      const float* gx = ws.gx.data() + static_cast<std::size_t>(l);
      const float* gy = ws.gy.data() + static_cast<std::size_t>(l);
      const float* gz = ws.gz.data() + static_cast<std::size_t>(l);
      for (int p = 0; p < n3; ++p) {
        const auto g = static_cast<std::size_t>(ib[p]);
        const float w = w3jac_[off + static_cast<std::size_t>(p)];
        const std::size_t q = static_cast<std::size_t>(p) * ln;
        a[g * 3 + 0] += w * gx[q];
        a[g * 3 + 1] += w * gy[q];
        a[g * 3 + 2] += w * gz[q];
      }
    }
  }

  if (cfg_.attenuation) {
    // Memory-variable update from this batch's deviatoric strain. Its
    // time is folded into the AttenuationUpdate phase once per step by
    // record_attenuation_time(); each thread touches only its own slot.
    auto update = [&] {
      const SlsSeries& sls = *cfg_.sls;
      for (int l = 0; l < count; ++l) {
        const int e = pb.elems[b * ln + static_cast<std::size_t>(l)];
        const std::size_t off = mesh_.local_offset(e);
        for (int s = 0; s < sls.num_sls(); ++s) {
          const auto ea = static_cast<float>(exp_a_[s]);
          const auto eb = static_cast<float>(
              one_minus_a_[s] * sls.y[static_cast<std::size_t>(s)]);
          auto& rl = r_mem_[static_cast<std::size_t>(s)];
          for (int c5 = 0; c5 < 5; ++c5) {
            float* r = rl[static_cast<std::size_t>(c5)].data() + off;
            const float* eps =
                ws.epsdev[c5].data() + static_cast<std::size_t>(l);
            const float* fac = att_factor_.data() + off;
            for (int p = 0; p < n3; ++p)
              r[p] = ea * r[p] +
                     eb * fac[p] * eps[static_cast<std::size_t>(p) * ln];
          }
        }
      }
    };
    if (profile_.enabled()) {
      WallTimer t_att;
      update();
      scratch.attenuation_seconds += t_att.seconds();
    } else {
      update();
    }
  }
}

void Simulation::run_element_schedule(const ElementSchedule& schedule,
                                      const PackedBatches& packed,
                                      bool solid) {
  auto run_range = [&](int t, std::size_t b, std::size_t e) {
    ThreadScratch& ts = *scratch_[static_cast<std::size_t>(t)];
    // Whole batches tile every unit range (checked at schedule build), so
    // walk the cuts covering [b, e).
    const auto& cut = packed.cut;
    auto bi = static_cast<std::size_t>(
        std::lower_bound(cut.begin(), cut.end(), b) - cut.begin());
    for (; bi + 1 < cut.size() && cut[bi] < e; ++bi) {
      if (solid)
        process_solid_batch(packed, bi, ts);
      else
        process_fluid_batch(packed, bi, ts);
    }
  };
  // Rounds are nested inside the enclosing solid/fluid phase and
  // excluded from the wall-time-sum invariant.
  auto record_round = [&](int /*round*/, int /*tag*/, double seconds) {
    if (!profile_.enabled()) return;
    profile_.record(metrics::Phase::ScheduleRound, profile_.now() - seconds,
                    seconds);
  };
  if (pool_ == nullptr) {
    // Inline path (1 slot): same round/unit traversal order, same
    // per-point summation order, hence bit-identical to the pooled path.
    for (const ThreadPool::WorkRound& round : schedule.work.rounds) {
      if (round.units.empty()) continue;
      std::size_t n = 0;
      for (const ThreadPool::WorkUnit& u : round.units) n += u.size();
      if (n == 0) continue;
      WallTimer t_round;
      for (const ThreadPool::WorkUnit& u : round.units)
        if (u.begin < u.end) run_range(0, u.begin, u.end);
      record_round(0, round.tag, t_round.seconds());
    }
  } else {
    pool_->parallel_for_schedule(schedule.work, run_range, record_round);
  }
}

/// Elementwise-independent global update, chunked over the pool. Chunk
/// boundaries never change results (each index is written once), so this
/// is bit-identical at any thread count.
void Simulation::parallel_over(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool_ == nullptr) {
    fn(0, n);
    return;
  }
  pool_->parallel_for_chunked(
      n, [&](int, std::size_t b, std::size_t e) { fn(b, e); });
}

void Simulation::compute_fluid_forces() {
  {
    metrics::PhaseScope ps(&profile_, metrics::Phase::FluidForces);

    // Element contributions.
    if (schedule_ == SolverSchedule::Colored) {
      run_element_schedule(sched_fluid_, packed_fluid_, /*solid=*/false);
    } else {
      for (std::size_t b = 0; b < packed_seq_fluid_.num_batches(); ++b)
        process_fluid_batch(packed_seq_fluid_, b, *scratch_[0]);
    }

    // Solid -> fluid coupling: continuity of normal displacement supplies
    // the boundary term with the solid displacement at t^{n+1}.
    for (const CouplingPoint& cp : coupling_) {
      const auto g = static_cast<std::size_t>(cp.iglob);
      const double un = displ_[g * 3 + 0] * cp.nx +
                        displ_[g * 3 + 1] * cp.ny +
                        displ_[g * 3 + 2] * cp.nz;
      chi_ddot_[g] += static_cast<float>(cp.weight * un);
    }
  }

  if (exchanger_ != nullptr) {
    metrics::PhaseScope ps(&profile_, metrics::Phase::HaloWait);
    exchanger_->assemble_add(*comm_, chi_ddot_.data(), 1);
  }

  metrics::PhaseScope ps(&profile_, metrics::Phase::MassUpdate);
  parallel_over(chi_ddot_.size(), [&](std::size_t b, std::size_t n) {
    for (std::size_t g = b; g < n; ++g)
      chi_ddot_[g] *= rmass_inv_fluid_[g];
  });
}

void Simulation::record_attenuation_time() {
  if (!profile_.enabled() || !cfg_.attenuation) return;
  double total = 0.0;
  for (const auto& s : scratch_) total += s->attenuation_seconds;
  const double delta = total - att_seconds_reported_;
  if (delta <= 0.0) return;
  att_seconds_reported_ = total;
  profile_.record(metrics::Phase::AttenuationUpdate,
                  profile_.now() - delta, delta);
}

void Simulation::compute_solid_forces() {
  const bool colored = schedule_ == SolverSchedule::Colored;
  // A rate-r schedule fires on the substeps that end its stride, ascending
  // rate: the per-point summation order is (rate, color) lexicographic,
  // fixed across thread counts. Rate 0 fires every substep.
  const int n = it_;
  auto run_rates = [&](const ClusterSchedule& cs,
                       const std::vector<PackedBatches>& packed) {
    for (std::size_t ri = 0; ri < cs.rates.size(); ++ri)
      if (((n + 1) & ((1 << cs.rates[ri]) - 1)) == 0)
        run_element_schedule(cs.rate_sched[ri], packed[ri], /*solid=*/true);
  };
  if (!colored) {
    metrics::PhaseScope ps(&profile_, metrics::Phase::SolidForces);
    for (std::size_t b = 0; b < packed_seq_solid_.num_batches(); ++b)
      process_solid_batch(packed_seq_solid_, b, *scratch_[0]);
  } else {
    // Boundary elements first: once they (and the cheap surface terms
    // below) have contributed, every halo point holds its final local
    // value and the exchange can start.
    metrics::PhaseScope ps(&profile_, metrics::Phase::SolidBoundary);
    run_rates(sched_boundary_, packed_boundary_);
  }

  metrics::PhaseScope ps_surface(&profile_,
                                 metrics::Phase::SourceInjection);

  // Fluid -> solid coupling: fluid pressure p = -chi_ddot acts as a
  // traction chi_ddot * n_solid = -chi_ddot * n_fluid on the solid.
  for (const CouplingPoint& cp : coupling_) {
    const auto g = static_cast<std::size_t>(cp.iglob);
    const double f = cp.weight * static_cast<double>(chi_ddot_[g]);
    accel_[g * 3 + 0] -= static_cast<float>(f * cp.nx);
    accel_[g * 3 + 1] -= static_cast<float>(f * cp.ny);
    accel_[g * 3 + 2] -= static_cast<float>(f * cp.nz);
  }

  // Stacey absorbing boundary: traction -rho (vp vn n + vs vt).
  for (const AbsorbingPoint& ap : absorbing_) {
    const auto g = static_cast<std::size_t>(ap.iglob);
    const double vx = veloc_[g * 3 + 0];
    const double vy = veloc_[g * 3 + 1];
    const double vz = veloc_[g * 3 + 2];
    const double vn = vx * ap.nx + vy * ap.ny + vz * ap.nz;
    const double rho = mat_.rho[ap.local];
    const double vp = mat_.vp[ap.local];
    const double vs = mat_.vs[ap.local];
    const double tn = rho * vp * vn;
    accel_[g * 3 + 0] -= static_cast<float>(
        ap.weight * (tn * ap.nx + rho * vs * (vx - vn * ap.nx)));
    accel_[g * 3 + 1] -= static_cast<float>(
        ap.weight * (tn * ap.ny + rho * vs * (vy - vn * ap.ny)));
    accel_[g * 3 + 2] -= static_cast<float>(
        ap.weight * (tn * ap.nz + rho * vs * (vz - vn * ap.nz)));
  }

  // Sources fire every substep: with several clusters the injection lands
  // on the assembled acceleration of whatever points are due now and is
  // junk-discarded elsewhere, so each cluster integrates the STF at its
  // own rate.
  inject_sources();
  ps_surface.stop();

  // Comm/compute overlap (§5): open the halo exchange as soon as every
  // halo point carries its final local value, hide it behind the interior
  // batches, and only then wait. Interior elements touch no halo point, so
  // they never race with the exchange snapshot or accumulation.
  if (colored) {
    if (exchanger_ != nullptr) {
      metrics::PhaseScope ps(&profile_, metrics::Phase::HaloBegin);
      exchanger_->assemble_add_begin(*comm_, accel_.data(), 3);
    }
    {
      metrics::PhaseScope ps(&profile_, metrics::Phase::SolidInterior);
      WallTimer t_interior;
      run_rates(sched_interior_, packed_interior_);
      if (exchanger_ != nullptr)
        overlap_compute_seconds_ += t_interior.seconds();
    }
    if (exchanger_ != nullptr) {
      metrics::PhaseScope ps(&profile_, metrics::Phase::HaloWait);
      WallTimer t_wait;
      exchanger_->assemble_add_end(*comm_);
      overlap_wait_seconds_ += t_wait.seconds();
    }
  } else if (exchanger_ != nullptr) {
    metrics::PhaseScope ps(&profile_, metrics::Phase::HaloWait);
    exchanger_->assemble_add(*comm_, accel_.data(), 3);
  }

  // Unmasked mass division: cheap, and with several clusters the junk at
  // not-due points stays junk (discarded by the masked corrector/predictor
  // pair).
  metrics::PhaseScope ps_mass(&profile_, metrics::Phase::MassUpdate);
  const auto ng = static_cast<std::size_t>(mesh_.nglob);
  parallel_over(ng, [&](std::size_t b, std::size_t e) {
    for (std::size_t g = b; g < e; ++g) {
      const float rm = rmass_inv_solid_[g];
      accel_[g * 3 + 0] *= rm;
      accel_[g * 3 + 1] *= rm;
      accel_[g * 3 + 2] *= rm;
    }
  });

  // Coriolis force: a -= 2 omega x v (exact after mass division because
  // the term's weak form shares the diagonal mass matrix).
  if (cfg_.rotation) {
    const double two_om = 2.0 * cfg_.omega_rad_s;
    parallel_over(ng, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g) {
        const double vx = veloc_[g * 3 + 0];
        const double vy = veloc_[g * 3 + 1];
        if (rmass_inv_solid_[g] == 0.0f) continue;
        accel_[g * 3 + 0] += static_cast<float>(two_om * vy);
        accel_[g * 3 + 1] -= static_cast<float>(two_om * vx);
      }
    });
  }
}

void Simulation::inject_sources() {
  const int n3 = mesh_.ngll3();
  for (const DiscreteSource& src : sources_) {
    const double s = src.stf(time_ + cfg_.dt);
    const std::size_t off = mesh_.local_offset(src.ispec);
    for (int p = 0; p < n3; ++p) {
      const auto& f = src.node_force[static_cast<std::size_t>(p)];
      if (f[0] == 0.0 && f[1] == 0.0 && f[2] == 0.0) continue;
      const auto g = static_cast<std::size_t>(
          mesh_.ibool[off + static_cast<std::size_t>(p)]);
      accel_[g * 3 + 0] += static_cast<float>(f[0] * s);
      accel_[g * 3 + 1] += static_cast<float>(f[1] * s);
      accel_[g * 3 + 2] += static_cast<float>(f[2] * s);
    }
  }
}

void Simulation::exchange_point_min(std::vector<int>& values) const {
  if (exchanger_ == nullptr) return;
  // Levels and rates are tiny non-negative integers (kNoTouchingRate =
  // 2^20 at worst) — exactly representable in float, so the round trip
  // through the float-typed exchanger is lossless.
  std::vector<float> f(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    f[i] = static_cast<float>(values[i]);
  exchanger_->assemble_min(*comm_, f.data(), 1);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<int>(f[i]);
}

void Simulation::build_cluster_partition_lts() {
  if (!cfg_.lts.element_dt.empty()) {
    SFG_CHECK_MSG(cfg_.lts.element_dt.size() ==
                      static_cast<std::size_t>(mesh_.nspec),
                  "lts.element_dt must carry one stable dt per element");
    std::vector<int> level_of = cluster_levels_from_dt(
        cfg_.lts.element_dt, cfg_.dt, cfg_.lts.max_levels);
    // Fluid elements march at the base rate: the acoustic potential has
    // no interface interpolation yet.
    for (int e : fluid_elements_) level_of[static_cast<std::size_t>(e)] = 0;

    // Rate-2 smoothing to a CROSS-RANK fixed point: point levels are
    // min-combined across ranks before each clamp so an element whose
    // fast neighbour lives on another rank still steps down. Terminates
    // because levels only ever decrease.
    std::vector<int> point_level;
    for (;;) {
      point_level = cluster_point_levels(mesh_, level_of);
      exchange_point_min(point_level);
      int changed = clamp_cluster_levels(mesh_, point_level, level_of);
      if (comm_ != nullptr)
        changed = static_cast<int>(comm_->allreduce_one<std::uint64_t>(
            static_cast<std::uint64_t>(changed), smpi::ReduceOp::Max));
      if (changed == 0) break;
    }
    lts_part_ = finalize_cluster_partition(mesh_, std::move(level_of),
                                           std::move(point_level));

    lts_num_levels_ = lts_part_.num_levels;
    if (comm_ != nullptr)
      lts_num_levels_ = static_cast<int>(comm_->allreduce_one<std::uint64_t>(
          static_cast<std::uint64_t>(lts_num_levels_), smpi::ReduceOp::Max));
  }
  lts_clock_.assign(static_cast<std::size_t>(lts_num_levels_), 0);
  // One cluster is global dt: every point is due every substep, so there
  // is no interface state to build, allocate or checkpoint.
  if (lts_num_levels_ == 1) return;

  // Feature restrictions: these carry per-substep element or boundary
  // state the interface interpolation does not serve yet. Refuse loudly
  // instead of producing silently wrong physics.
  SFG_CHECK_MSG(!cfg_.attenuation,
                "multi-cluster LTS does not support attenuation");
  SFG_CHECK_MSG(!cfg_.rotation, "multi-cluster LTS does not support rotation");
  SFG_CHECK_MSG(!global_has_fluid_,
                "multi-cluster LTS does not support fluid regions");
  SFG_CHECK_MSG(cfg_.absorbing_faces.empty(),
                "multi-cluster LTS does not support absorbing boundaries");

  // Interface set from the min-combined marching rates (the exchanged
  // values keep the interpolation-set membership — and hence the displ
  // trajectory of every shared point — bit-consistent across ranks).
  std::vector<int> min_rate = cluster_point_min_rate(mesh_, lts_part_.rate_of);
  exchange_point_min(min_rate);
  lts_interp_ = cluster_interface_points(mesh_, lts_part_.point_level,
                                         min_rate, cfg_.lts.cluster);

  // Invariant C-D at construction: every mid-stride gather is covered by
  // the interpolation set. A partition that fails cannot march.
  const std::string err =
      check_cluster_interfaces(mesh_, solid_elements_, lts_part_, lts_interp_);
  SFG_CHECK_MSG(err.empty(), "cluster schedule invariant violated: " << err);

  const auto ng = static_cast<std::size_t>(mesh_.nglob);
  a_pred_.assign(ng * 3, 0.0f);
  const std::size_t ni = lts_interp_.points.size();
  interp_u0_.assign(ni * 3, 0.0f);
  interp_v0_.assign(ni * 3, 0.0f);
  interp_a0_.assign(ni * 3, 0.0f);

  SFG_INFO("clustered LTS: levels=" << lts_num_levels_
           << " interface_points=" << ni);
}

void Simulation::lts_predict() {
  const double dt = cfg_.dt;
  const double dt2 = 0.5 * dt * dt;
  const auto ng = static_cast<std::size_t>(mesh_.nglob);

  if (lts_num_levels_ == 1) {
    // One cluster: every point takes the global-dt predictor.
    parallel_over(ng * 3, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g) {
        displ_[g] += static_cast<float>(dt * veloc_[g] + dt2 * accel_[g]);
        veloc_[g] += static_cast<float>(0.5 * dt * accel_[g]);
        accel_[g] = 0.0f;
      }
    });
  } else {
    const int n = it_;  // substep about to execute
    const int* plevel = lts_part_.point_level.data();
    const std::size_t ni = lts_interp_.points.size();

    // Stride-start Taylor snapshot of the interface points, BEFORE the
    // masked predictor moves them: u0/v0 are the stride-boundary
    // kinematics, a0 the acceleration latched at the owning cluster's
    // last corrector.
    if (ni > 0) {
      metrics::PhaseScope ps(&profile_, metrics::Phase::LtsInterpolate);
      for (std::size_t i = 0; i < ni; ++i) {
        const int lv = lts_interp_.level[i];
        if ((n & ((1 << lv) - 1)) != 0) continue;
        const auto g = static_cast<std::size_t>(lts_interp_.points[i]) * 3;
        for (int c = 0; c < 3; ++c) {
          interp_u0_[i * 3 + static_cast<std::size_t>(c)] = displ_[g + c];
          interp_v0_[i * 3 + static_cast<std::size_t>(c)] = veloc_[g + c];
          interp_a0_[i * 3 + static_cast<std::size_t>(c)] = a_pred_[g + c];
        }
      }
    }

    // Masked predictor: a level-L point takes its full 2^L dt stride at
    // the stride-start substep and rests otherwise; acceleration is zeroed
    // at EVERY point every substep (partial sums at resting points are
    // junk by construction and discarded).
    parallel_over(ng, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g) {
        const int lv = plevel[g];
        if ((static_cast<int>(n) & ((1 << lv) - 1)) == 0) {
          const double dtL = dt * static_cast<double>(1 << lv);
          const double dtL2 = 0.5 * dtL * dtL;
          for (int c = 0; c < 3; ++c) {
            const std::size_t q = g * 3 + static_cast<std::size_t>(c);
            displ_[q] +=
                static_cast<float>(dtL * veloc_[q] + dtL2 * a_pred_[q]);
            veloc_[q] += static_cast<float>(0.5 * dtL * a_pred_[q]);
          }
        }
        accel_[g * 3 + 0] = 0.0f;
        accel_[g * 3 + 1] = 0.0f;
        accel_[g * 3 + 2] = 0.0f;
      }
    });

    // Interface interpolation: faster neighbours gather these points
    // mid-stride, so their displacement must read the owning cluster's
    // trajectory at THIS substep's target time, not the full-stride jump
    // the predictor just wrote. Evaluate the Taylor polynomial at
    // s = (p + 1) dt into the stride (double math, one float round).
    if (ni > 0) {
      metrics::PhaseScope ps(&profile_, metrics::Phase::LtsInterpolate);
      for (std::size_t i = 0; i < ni; ++i) {
        const int lv = lts_interp_.level[i];
        const int p = n & ((1 << lv) - 1);
        const double s = static_cast<double>(p + 1) * dt;
        const auto g = static_cast<std::size_t>(lts_interp_.points[i]) * 3;
        for (int c = 0; c < 3; ++c) {
          const std::size_t q = i * 3 + static_cast<std::size_t>(c);
          displ_[g + c] = static_cast<float>(
              static_cast<double>(interp_u0_[q]) + s * interp_v0_[q] +
              0.5 * s * s * interp_a0_[q]);
        }
      }
    }
  }

  // Fluid elements are pinned to cluster 0: the potential takes dt.
  if (global_has_fluid_) {
    parallel_over(ng, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g) {
        chi_[g] += static_cast<float>(dt * chi_dot_[g] + dt2 * chi_ddot_[g]);
        chi_dot_[g] += static_cast<float>(0.5 * dt * chi_ddot_[g]);
        chi_ddot_[g] = 0.0f;
      }
    });
  }
}

void Simulation::lts_correct() {
  const double dt = cfg_.dt;
  const auto ng = static_cast<std::size_t>(mesh_.nglob);
  const int n = it_;

  if (lts_num_levels_ == 1) {
    // One cluster: the global-dt corrector.
    parallel_over(ng * 3, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g)
        veloc_[g] += static_cast<float>(0.5 * dt * accel_[g]);
    });
  } else {
    // Masked corrector: points due this substep finish their stride with
    // the freshly assembled acceleration and latch it for the next
    // predictor. Not-due points keep their half-updated velocity; their
    // accel_ holds junk that the next substep zeroes.
    const int* plevel = lts_part_.point_level.data();
    parallel_over(ng, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g) {
        const int lv = plevel[g];
        if (((n + 1) & ((1 << lv) - 1)) != 0) continue;
        const double dtL = dt * static_cast<double>(1 << lv);
        for (int c = 0; c < 3; ++c) {
          const std::size_t q = g * 3 + static_cast<std::size_t>(c);
          veloc_[q] += static_cast<float>(0.5 * dtL * accel_[q]);
          a_pred_[q] = accel_[q];
        }
      }
    });
  }

  if (global_has_fluid_) {
    parallel_over(ng, [&](std::size_t b, std::size_t e) {
      for (std::size_t g = b; g < e; ++g)
        chi_dot_[g] += static_cast<float>(0.5 * dt * chi_ddot_[g]);
    });
  }

  // Per-rate stride clocks (checkpointed): clock[r] == step_count() >> r
  // after every step.
  for (int r = 0; r < lts_num_levels_; ++r)
    if (((n + 1) & ((1 << r) - 1)) == 0)
      ++lts_clock_[static_cast<std::size_t>(r)];
}

void Simulation::step() {
  // Fault-plan hook: a planned rank death fires here, before any of this
  // step's collective communication, so peers abort instead of deadlock.
  if (comm_ != nullptr) comm_->notify_step(it_);
  profile_.begin_step();
  WallTimer t_step;

  {
    metrics::PhaseScope ps(&profile_, metrics::Phase::NewmarkPredictor);
    lts_predict();
  }
  // The fluid phase is collective (chi_ddot assembly), so it is gated on
  // the global fluid flag: all-solid ranks of a mixed mesh participate
  // with zero local contributions.
  if (global_has_fluid_) compute_fluid_forces();
  compute_solid_forces();
  {
    metrics::PhaseScope ps(&profile_, metrics::Phase::NewmarkCorrector);
    lts_correct();
  }

  time_ += cfg_.dt;
  ++it_;

  if (comm_ != nullptr) comm_->add_virtual_compute(flops_per_step());
  if (it_ % cfg_.record_every == 0) {
    metrics::PhaseScope ps(&profile_, metrics::Phase::SeismogramRecord);
    record_receivers();
  }
  record_attenuation_time();
  profile_.end_step(t_step.seconds());

  // Periodic checkpoint cadence (ISSUE 5). After the profile close so the
  // snapshot carries this step's metric counters, and gated on it_ so a
  // restored run re-checkpoints on the same schedule it was saved under.
  if (cfg_.checkpoint_interval_steps > 0 &&
      it_ % cfg_.checkpoint_interval_steps == 0) {
    if (cfg_.checkpoint_store)
      write_checkpoint(*cfg_.checkpoint_store, cfg_.checkpoint_path,
                       cfg_.checkpoint_identity);
    else
      write_checkpoint(cfg_.checkpoint_path, cfg_.checkpoint_identity);
  }
}

void Simulation::run(int nsteps) {
  for (int s = 0; s < nsteps; ++s) step();
}

void Simulation::record_receivers() {
  for (ReceiverState& rs : receivers_) {
    double u[3] = {0.0, 0.0, 0.0};
    for (std::size_t n = 0; n < rs.node_glob.size(); ++n) {
      const auto g = static_cast<std::size_t>(rs.node_glob[n]);
      const double w = rs.weights[n];
      u[0] += w * displ_[g * 3 + 0];
      u[1] += w * displ_[g * 3 + 1];
      u[2] += w * displ_[g * 3 + 2];
    }
    rs.seis.time.push_back(time_);
    rs.seis.displ.push_back({u[0], u[1], u[2]});
  }
}

const Seismogram& Simulation::seismogram(int receiver) const {
  SFG_CHECK(receiver >= 0 &&
            receiver < static_cast<int>(receivers_.size()));
  return receivers_[static_cast<std::size_t>(receiver)].seis;
}

const LocatedPoint& Simulation::receiver_location(int receiver) const {
  SFG_CHECK(receiver >= 0 &&
            receiver < static_cast<int>(receivers_.size()));
  return receivers_[static_cast<std::size_t>(receiver)].loc;
}

EnergySnapshot Simulation::compute_energy() {
  EnergySnapshot es;
  const int ngll = mesh_.ngll;
  const int n3 = mesh_.ngll3();

  // Element-wise kinetic and strain energy: safe to sum across ranks
  // because every element is owned by exactly one rank. The kernel's
  // single-element API is the Reference path.
  KernelWorkspace ws(ngll);
  for (int e : solid_elements_) {
    const std::size_t off = mesh_.local_offset(e);
    gather_element_displ(e, ws);
    ElementPointers ep = element_pointers(e);
    if (cfg_.attenuation) {
      for (int c = 0; c < 6; ++c) ep.r_sum[c] = nullptr;
    }
    kernel_.compute_elastic(ep, ws);
    for (int k = 0; k < ngll; ++k) {
      for (int j = 0; j < ngll; ++j) {
        for (int i = 0; i < ngll; ++i) {
          const int lp = local_index(ngll, i, j, k);
          const std::size_t p = off + static_cast<std::size_t>(lp);
          const auto g = static_cast<std::size_t>(mesh_.ibool[p]);
          const double w3 =
              basis_.weight(i) * basis_.weight(j) * basis_.weight(k);
          const double m = w3 * mesh_.jacobian[p] * mat_.rho[p];
          const double vx = veloc_[g * 3 + 0], vy = veloc_[g * 3 + 1],
                       vz = veloc_[g * 3 + 2];
          es.kinetic += 0.5 * m * (vx * vx + vy * vy + vz * vz);
          // strain energy = -1/2 u . f_element (f = -K_e u)
          es.potential -=
              0.5 * (static_cast<double>(displ_[g * 3 + 0]) *
                         ws.fx[static_cast<std::size_t>(lp)] +
                     static_cast<double>(displ_[g * 3 + 1]) *
                         ws.fy[static_cast<std::size_t>(lp)] +
                     static_cast<double>(displ_[g * 3 + 2]) *
                         ws.fz[static_cast<std::size_t>(lp)]);
        }
      }
    }
  }

  // Fluid energy: kinetic = |grad chi|^2 / (2 rho), compressional =
  // chi_ddot^2 / (2 kappa) — evaluated element-wise via the same scheme.
  for (int e : fluid_elements_) {
    const std::size_t off = mesh_.local_offset(e);
    for (int p = 0; p < n3; ++p)
      ws.chi[static_cast<std::size_t>(p)] = chi_[static_cast<std::size_t>(
          mesh_.ibool[off + static_cast<std::size_t>(p)])];
    // Reference-coordinate gradients of chi.
    for (int k = 0; k < ngll; ++k) {
      for (int j = 0; j < ngll; ++j) {
        for (int i = 0; i < ngll; ++i) {
          double g1 = 0, g2 = 0, g3 = 0;
          for (int l = 0; l < ngll; ++l) {
            g1 += ws.chi[static_cast<std::size_t>(
                      local_index(ngll, l, j, k))] *
                  basis_.hprime(i, l);
            g2 += ws.chi[static_cast<std::size_t>(
                      local_index(ngll, i, l, k))] *
                  basis_.hprime(j, l);
            g3 += ws.chi[static_cast<std::size_t>(
                      local_index(ngll, i, j, l))] *
                  basis_.hprime(k, l);
          }
          const std::size_t p =
              off + static_cast<std::size_t>(local_index(ngll, i, j, k));
          const double gx =
              mesh_.xix[p] * g1 + mesh_.etax[p] * g2 + mesh_.gammax[p] * g3;
          const double gy =
              mesh_.xiy[p] * g1 + mesh_.etay[p] * g2 + mesh_.gammay[p] * g3;
          const double gz =
              mesh_.xiz[p] * g1 + mesh_.etaz[p] * g2 + mesh_.gammaz[p] * g3;
          const double w3 =
              basis_.weight(i) * basis_.weight(j) * basis_.weight(k);
          const double vol = w3 * mesh_.jacobian[p];
          const auto g = static_cast<std::size_t>(mesh_.ibool[p]);
          es.fluid += vol * (gx * gx + gy * gy + gz * gz) /
                      (2.0 * mat_.rho[p]);
          es.fluid += vol * static_cast<double>(chi_ddot_[g]) *
                      chi_ddot_[g] / (2.0 * mat_.kappav[p]);
        }
      }
    }
  }

  if (comm_ != nullptr) {
    double vals[3] = {es.kinetic, es.potential, es.fluid};
    comm_->allreduce(vals, 3, smpi::ReduceOp::Sum);
    es.kinetic = vals[0];
    es.potential = vals[1];
    es.fluid = vals[2];
  }
  return es;
}

std::uint64_t Simulation::flops_per_step() const {
  std::uint64_t f =
      kernel_.elastic_flops_per_element() * solid_elements_.size() +
      kernel_.acoustic_flops_per_element() * fluid_elements_.size();
  // Newmark updates: ~10 flops per dof.
  f += static_cast<std::uint64_t>(mesh_.nglob) * 3ull * 10ull;
  if (cfg_.attenuation && cfg_.sls.has_value()) {
    // memory-variable update: nsls * 5 comps * 3 flops per local point
    f += static_cast<std::uint64_t>(cfg_.sls->num_sls()) * 5ull * 3ull *
         mesh_.num_local_points();
  }
  return f;
}

std::uint64_t Simulation::comm_bytes_per_step() const {
  if (exchanger_ == nullptr) return 0;
  std::uint64_t floats = exchanger_->floats_per_exchange(3);
  if (global_has_fluid_) floats += exchanger_->floats_per_exchange(1);
  return floats * sizeof(float);
}

metrics::RunReport Simulation::metrics_report(
    const std::string& label) const {
  metrics::RunReport r;
  r.label = label;
  r.rank = comm_ != nullptr ? comm_->rank() : 0;
  r.nranks = comm_ != nullptr ? comm_->size() : 1;
  r.steps = profile_.steps();
  r.wall_seconds = profile_.total_wall_seconds();
  r.phase_seconds = profile_.phase_seconds();
  r.phase_counts = profile_.phase_counts();
  if (comm_ != nullptr) {
    r.comm = metrics::summarize_comm(comm_->stats());
    r.has_comm = true;
  }
  if (pool_ != nullptr) {
    r.thread_busy_seconds = pool_->busy_seconds();
    r.thread_span_seconds = pool_->span_seconds();
  }
  return r;
}

void Simulation::write_metrics_report(std::ostream& os,
                                      const std::string& label) const {
  metrics::write_report(os, metrics_report(label));
}

metrics::RankTimeline Simulation::metrics_timeline() const {
  metrics::RankTimeline tl;
  tl.rank = comm_ != nullptr ? comm_->rank() : 0;
  tl.events = profile_.timeline();
  return tl;
}

}  // namespace sfg
