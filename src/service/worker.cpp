#include "service/worker.hpp"

#include <filesystem>
#include <sstream>

#include "common/check.hpp"
#include "runtime/exchanger.hpp"
#include "runtime/fault.hpp"
#include "runtime/smpi.hpp"
#include "solver/simulation.hpp"

namespace sfg::service {

namespace fs = std::filesystem;

namespace {

MaterialSample rock_sample() {
  MaterialSample s;
  s.rho = 2500.0;
  s.vp = 3000.0;
  s.vs = 1800.0;
  s.q_mu = 80.0;
  return s;
}

MaterialSample water_sample() {
  MaterialSample s;
  s.rho = 1000.0;
  s.vp = 1500.0;
  s.vs = 0.0;
  s.q_mu = 0.0;
  return s;
}

/// The model axis of the cache key as a material sampler. The fluid band
/// of FluidLayer sits at z in [extent/4, extent/2), as in the mixed
/// fluid/solid validation boxes of the test suite.
MaterialSample sample_model(BoxModel model, double extent, double z) {
  if (model == BoxModel::FluidLayer && z >= 0.25 * extent &&
      z < 0.5 * extent)
    return water_sample();
  return rock_sample();
}

CartesianBoxSpec box_spec_for(const JobRequest& r) {
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = r.nex;
  spec.lx = spec.ly = spec.lz = r.extent_m;
  return spec;
}

std::string slice_key(const JobRequest& r, int rank) {
  std::ostringstream os;
  os << "box nex=" << r.nex << " nranks=" << r.nranks << " rank=" << rank
     << " model=" << static_cast<int>(r.model) << " extent=" << r.extent_m;
  return os.str();
}

PointSource point_source_for(const JobRequest& r) {
  PointSource src;
  src.x = r.source.x;
  src.y = r.source.y;
  src.z = r.source.z;
  src.force = r.source.force;
  src.stf = ricker_wavelet(r.source.f0, r.source.t0);
  return src;
}

io::SnapshotIdentity rank_identity(const JobRequest& r, int rank) {
  io::SnapshotIdentity id;
  id.nex = r.nex;
  id.nproc = r.nranks;
  id.nchunks = 1;
  id.rank = rank;
  id.nranks = r.nranks;
  return id;
}

std::string rank_checkpoint_key(int rank) {
  return "rank" + std::to_string(rank) + ".snap";
}

/// The per-job checkpoint store: with the per-rank-files backend the keys
/// land as `<scratch_dir>/rankN.snap` (the pre-ISSUE-8 layout); with the
/// container backend every rank checkpoints into ONE
/// `<scratch_dir>/checkpoints.sfgc`.
std::shared_ptr<io::BlobStore> scratch_store(const std::string& scratch_dir,
                                             io::IoBackendKind backend) {
  return io::make_store(backend,
                        backend == io::IoBackendKind::Container
                            ? scratch_dir + "/checkpoints"
                            : scratch_dir);
}

/// The step all ranks' periodic checkpoints agree on, or -1 when there is
/// no complete consistent set (missing blob, unreadable blob, a torn
/// container — which rejects wholesale — or ranks torn down between
/// cadence boundaries with different last steps).
int consistent_checkpoint_step(const JobRequest& r,
                               const io::BlobStore& store) {
  std::int64_t step = -1;
  for (int rank = 0; rank < r.nranks; ++rank) {
    const std::int64_t s = checkpoint_step(store, rank_checkpoint_key(rank),
                                           rank_identity(r, rank));
    if (s <= 0) return -1;
    if (rank == 0)
      step = s;
    else if (s != step)
      return -1;
  }
  return static_cast<int>(step);
}

SimulationConfig config_for(const JobRequest& r,
                            std::shared_ptr<io::BlobStore> store, int rank) {
  SimulationConfig cfg;
  cfg.dt = r.dt;
  if (r.checkpoint_interval_steps > 0) {
    cfg.checkpoint_interval_steps = r.checkpoint_interval_steps;
    cfg.checkpoint_store = std::move(store);
    cfg.checkpoint_path = rank_checkpoint_key(rank);
    cfg.checkpoint_identity = rank_identity(r, rank);
  }
  return cfg;
}

/// CachedSlice <-> sfg_snapshot bytes, for the MeshCache spill path. The
/// identity is unused (slices are keyed by name); layout checks live in
/// the section sizes themselves.
std::vector<std::byte> serialize_slice(const CachedSlice& s) {
  io::SnapshotWriter w;
  const std::int32_t dims[3] = {s.mesh.ngll, s.mesh.nspec, s.mesh.nglob};
  w.add_values("dims", dims, 3);
  w.add_values("xstore", s.mesh.xstore.data(), s.mesh.xstore.size());
  w.add_values("ystore", s.mesh.ystore.data(), s.mesh.ystore.size());
  w.add_values("zstore", s.mesh.zstore.data(), s.mesh.zstore.size());
  w.add_vector("ibool", s.mesh.ibool);
  w.add_values("xix", s.mesh.xix.data(), s.mesh.xix.size());
  w.add_values("xiy", s.mesh.xiy.data(), s.mesh.xiy.size());
  w.add_values("xiz", s.mesh.xiz.data(), s.mesh.xiz.size());
  w.add_values("etax", s.mesh.etax.data(), s.mesh.etax.size());
  w.add_values("etay", s.mesh.etay.data(), s.mesh.etay.size());
  w.add_values("etaz", s.mesh.etaz.data(), s.mesh.etaz.size());
  w.add_values("gammax", s.mesh.gammax.data(), s.mesh.gammax.size());
  w.add_values("gammay", s.mesh.gammay.data(), s.mesh.gammay.size());
  w.add_values("gammaz", s.mesh.gammaz.data(), s.mesh.gammaz.size());
  w.add_values("jacobian", s.mesh.jacobian.data(), s.mesh.jacobian.size());
  const MaterialFields& m = s.materials;
  w.add_values("rho", m.rho.data(), m.rho.size());
  w.add_values("kappav", m.kappav.data(), m.kappav.size());
  w.add_values("muv", m.muv.data(), m.muv.size());
  w.add_values("vp", m.vp.data(), m.vp.size());
  w.add_values("vs", m.vs.data(), m.vs.size());
  w.add_values("q_mu", m.q_mu.data(), m.q_mu.size());
  w.add_values("mu_relaxed", m.mu_relaxed.data(), m.mu_relaxed.size());
  std::vector<std::uint8_t> fluid(m.element_is_fluid.size());
  for (std::size_t e = 0; e < fluid.size(); ++e)
    fluid[e] = m.element_is_fluid[e] ? 1 : 0;
  w.add_vector("fluid", fluid);
  w.add_vector("boundary_keys", s.boundary_keys);
  w.add_vector("boundary_points", s.boundary_points);
  return w.serialize(io::SnapshotIdentity{});
}

std::shared_ptr<const CachedSlice> parse_slice(
    const std::vector<std::byte>& bytes, const std::string& label) {
  const auto r =
      io::SnapshotReader::parse(bytes, label, io::SnapshotIdentity{});
  auto slice = std::make_shared<CachedSlice>();
  const auto dims = r.read_vector<std::int32_t>("dims");
  SFG_CHECK_MSG(dims.size() == 3,
                "spilled slice '" << label << "' has a malformed dims "
                                  << "section");
  HexMesh& mesh = slice->mesh;
  mesh.ngll = dims[0];
  mesh.nspec = dims[1];
  mesh.nglob = dims[2];
  auto load_d = [&](const char* name, aligned_vector<double>& out) {
    const auto v = r.read_vector<double>(name);
    out.assign(v.begin(), v.end());
  };
  auto load_f = [&](const char* name, aligned_vector<float>& out) {
    const auto v = r.read_vector<float>(name);
    out.assign(v.begin(), v.end());
  };
  load_d("xstore", mesh.xstore);
  load_d("ystore", mesh.ystore);
  load_d("zstore", mesh.zstore);
  mesh.ibool = r.read_vector<int>("ibool");
  load_f("xix", mesh.xix);
  load_f("xiy", mesh.xiy);
  load_f("xiz", mesh.xiz);
  load_f("etax", mesh.etax);
  load_f("etay", mesh.etay);
  load_f("etaz", mesh.etaz);
  load_f("gammax", mesh.gammax);
  load_f("gammay", mesh.gammay);
  load_f("gammaz", mesh.gammaz);
  load_f("jacobian", mesh.jacobian);
  SFG_CHECK_MSG(mesh.num_local_points() == mesh.xstore.size(),
                "spilled slice '" << label << "' coordinate count "
                                  << mesh.xstore.size()
                                  << " disagrees with dims "
                                  << mesh.num_local_points());
  MaterialFields& m = slice->materials;
  load_f("rho", m.rho);
  load_f("kappav", m.kappav);
  load_f("muv", m.muv);
  load_f("vp", m.vp);
  load_f("vs", m.vs);
  load_f("q_mu", m.q_mu);
  load_f("mu_relaxed", m.mu_relaxed);
  const auto fluid = r.read_vector<std::uint8_t>("fluid");
  m.element_is_fluid.assign(fluid.size(), false);
  for (std::size_t e = 0; e < fluid.size(); ++e)
    m.element_is_fluid[e] = fluid[e] != 0;
  slice->boundary_keys = r.read_vector<std::int64_t>("boundary_keys");
  slice->boundary_points = r.read_vector<int>("boundary_points");
  return slice;
}

}  // namespace

std::shared_ptr<const CachedSlice> MeshCache::get(const JobRequest& r,
                                                  int rank) {
  const std::string key = slice_key(r, rank);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slices_.find(key);
    if (it != slices_.end()) {
      ++hits_;
      last_use_[key] = ++tick_;
      return it->second;
    }
  }
  // Not resident: reload a spilled slice before rebuilding — the read is
  // CRC-verified, so a corrupted spill fails loudly instead of meshing
  // wrong geometry. Done outside the cache lock (ContainerStore has its
  // own); two threads racing on the key parse identical objects and the
  // loser's copy is simply dropped.
  if (spill_store_ != nullptr && spill_store_->contains(key)) {
    auto slice = parse_slice(spill_store_->read(key),
                             spill_store_->describe() + ":" + key);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = slices_.emplace(key, std::move(slice));
    if (inserted) ++spill_hits_;
    else ++hits_;
    last_use_[key] = ++tick_;
    evict_over_cap_locked();
    return it->second;
  }
  // Build outside the lock: slices are deterministic, so two threads
  // racing on the same key build identical objects and the loser's copy
  // is simply dropped.
  auto slice = std::make_shared<CachedSlice>();
  const CartesianBoxSpec spec = box_spec_for(r);
  if (r.nranks == 1) {
    slice->mesh = build_cartesian_box(spec, basis_);
  } else {
    CartesianSlice cs = build_cartesian_slice(spec, basis_, r.nranks, 1, 1,
                                              rank, 0, 0);
    slice->mesh = std::move(cs.mesh);
    slice->boundary_keys = std::move(cs.boundary_keys);
    slice->boundary_points = std::move(cs.boundary_points);
  }
  slice->materials = assign_materials(
      slice->mesh, [&](double, double, double z) {
        return sample_model(r.model, r.extent_m, z);
      });
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = slices_.emplace(key, std::move(slice));
  if (inserted)
    ++misses_;
  else
    ++hits_;
  last_use_[key] = ++tick_;
  evict_over_cap_locked();
  return it->second;
}

void MeshCache::configure_spill(const std::string& container_path,
                                std::size_t max_resident) {
  std::lock_guard<std::mutex> lock(mutex_);
  SFG_CHECK_MSG(max_resident > 0,
                "MeshCache spill needs max_resident >= 1");
  spill_store_ =
      io::make_store(io::IoBackendKind::Container, container_path);
  max_resident_ = max_resident;
  evict_over_cap_locked();
}

void MeshCache::evict_over_cap_locked() {
  if (max_resident_ == 0 || spill_store_ == nullptr) return;
  while (slices_.size() > max_resident_) {
    auto victim = slices_.end();
    std::uint64_t oldest = 0;
    for (auto it = slices_.begin(); it != slices_.end(); ++it) {
      const std::uint64_t t = last_use_[it->first];
      if (victim == slices_.end() || t < oldest) {
        victim = it;
        oldest = t;
      }
    }
    // Slices are immutable, so a key already spilled once never needs
    // rewriting — eviction is then just dropping the resident copy.
    if (!spill_store_->contains(victim->first)) {
      const std::vector<std::byte> bytes = serialize_slice(*victim->second);
      spill_store_->write(victim->first, bytes.data(), bytes.size());
      ++spills_;
    }
    last_use_.erase(victim->first);
    slices_.erase(victim);
  }
}

std::uint64_t MeshCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t MeshCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t MeshCache::spills() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spills_;
}

std::uint64_t MeshCache::spill_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spill_hits_;
}

std::size_t MeshCache::resident() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slices_.size();
}

namespace {

/// One serial attempt (nranks == 1). Returns the collected result.
JobResult run_serial_attempt(const JobRequest& r, MeshCache& cache,
                             std::shared_ptr<io::BlobStore> store,
                             int restore_step) {
  const auto slice = cache.get(r, 0);
  Simulation sim(slice->mesh, cache.basis(), slice->materials,
                 config_for(r, store, 0));
  sim.add_source(point_source_for(r));
  std::vector<int> recv_ids;
  for (const StationSpec& st : r.stations)
    recv_ids.push_back(sim.add_receiver(st.x, st.y, st.z));
  if (restore_step > 0) {
    sim.restore_checkpoint(*store, rank_checkpoint_key(0),
                           rank_identity(r, 0));
    SFG_CHECK(sim.step_count() == restore_step);
  }
  sim.run(r.nsteps - (restore_step > 0 ? restore_step : 0));
  JobResult result;
  for (int id : recv_ids) result.seismograms.push_back(sim.seismogram(id));
  return result;
}

/// One parallel attempt over a fresh smpi::World; `plan` (may be null)
/// is the injected fault schedule. Station slots are written by their
/// owning ranks only (disjoint indices; run_ranks joins before we read).
JobResult run_parallel_attempt(const JobRequest& r, MeshCache& cache,
                               std::shared_ptr<io::BlobStore> store,
                               int restore_step,
                               const smpi::FaultPlan* plan) {
  JobResult result;
  result.seismograms.resize(r.stations.size());

  auto body = [&](smpi::Communicator& comm) {
    const int rank = comm.rank();
    const auto slice = cache.get(r, rank);
    std::vector<smpi::PointCandidate> cands;
    cands.reserve(slice->boundary_keys.size());
    for (std::size_t n = 0; n < slice->boundary_keys.size(); ++n)
      cands.push_back({slice->boundary_keys[n], slice->boundary_points[n]});
    smpi::Exchanger ex = smpi::Exchanger::build(comm, cands);
    Simulation sim(slice->mesh, cache.basis(), slice->materials,
                   config_for(r, store, rank), &comm, &ex);
    sim.add_source_global(point_source_for(r));
    // (station index, local receiver id) pairs this rank owns.
    std::vector<std::pair<std::size_t, int>> owned;
    for (std::size_t s = 0; s < r.stations.size(); ++s) {
      const StationSpec& st = r.stations[s];
      const int id = sim.add_receiver_global(st.x, st.y, st.z);
      if (id >= 0) owned.emplace_back(s, id);
    }
    if (restore_step > 0) {
      sim.restore_checkpoint(*store, rank_checkpoint_key(rank),
                             rank_identity(r, rank));
      SFG_CHECK(sim.step_count() == restore_step);
    }
    sim.run(r.nsteps - (restore_step > 0 ? restore_step : 0));
    for (const auto& [s, id] : owned)
      result.seismograms[s] = sim.seismogram(id);
  };

  if (plan != nullptr)
    smpi::run_ranks_with_faults(r.nranks, *plan, body);
  else
    smpi::run_ranks(r.nranks, body);
  return result;
}

}  // namespace

ExecutionOutcome execute_job(const JobRequest& r, MeshCache& cache,
                             const std::string& scratch_dir,
                             int max_retries, io::IoBackendKind backend) {
  // Start from an empty scratch directory: checkpoints another request
  // left at the same path (a failed job, or a front-end reopened over the
  // same work dir whose job ids restart at 0) must never be resumed.
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  fs::create_directories(scratch_dir);
  const std::shared_ptr<io::BlobStore> store =
      scratch_store(scratch_dir, backend);
  ExecutionOutcome out;
  std::string last_error;

  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    // Retry placement: resume from the last consistent checkpoint set if
    // one exists; otherwise cold.
    const int restore_step =
        attempt == 0 ? -1 : consistent_checkpoint_step(r, *store);
    const int start_step = restore_step > 0 ? restore_step : 0;

    // The fault fires on the first attempt only: the model is a failed
    // node replaced before the retry, not a deterministic repeat crash.
    smpi::FaultPlan plan;
    const bool faulted = attempt == 0 && !r.fault.empty();
    if (faulted) plan.kill_rank(r.fault.kill_rank, r.fault.kill_step);

    try {
      out.attempts = attempt + 1;
      JobResult result =
          r.nranks == 1
              ? run_serial_attempt(r, cache, store, restore_step)
              : run_parallel_attempt(r, cache, store, restore_step,
                                     faulted ? &plan : nullptr);
      out.steps_executed += r.nsteps - start_step;
      out.resumed_from_step = restore_step > 0 ? restore_step : -1;
      out.result = std::move(result);
      fs::remove_all(scratch_dir, ec);  // best-effort scratch cleanup
      return out;
    } catch (const smpi::SimulationAborted& e) {
      last_error = e.what();
      // Price the work the dead attempt completed: a planned death at
      // step K means every rank marched up to ~K steps before the abort
      // (per-rank lockstep via the per-step halo exchange).
      if (faulted && r.fault.kill_step > start_step)
        out.steps_executed +=
            std::min(r.fault.kill_step, r.nsteps) - start_step;
    }
  }
  throw CheckError("job failed after " + std::to_string(max_retries + 1) +
                   " attempts; last error: " + last_error);
}

}  // namespace sfg::service
