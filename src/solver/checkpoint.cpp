#include "io/blob_store.hpp"
#include "io/snapshot.hpp"
#include "solver/simulation.hpp"

/// \file checkpoint.cpp
/// Simulation::write_checkpoint / restore_checkpoint (ISSUE 2).
///
/// The snapshot captures exactly the state the Newmark scheme carries
/// across a step boundary — the fields declared once in marching_state(),
/// plus the step index, clock and per-rate LTS clocks — and the
/// seismogram samples recorded so far (so the *final* seismograms of a
/// restarted run equal the uninterrupted ones bit for bit). Sources are
/// pure functions of time_, so no RNG or source state is needed beyond the
/// clock itself.

namespace sfg {

namespace {

/// Layout fingerprint stored in the "meta" section, checked on restore so
/// a snapshot can never be loaded into a structurally different run even
/// when the SnapshotIdentity happens to match.
struct CheckpointMeta {
  std::int64_t step = 0;
  double time = 0.0;
  double dt = 0.0;
  std::int32_t nglob = 0;
  std::int32_t nspec = 0;
  std::int32_t ngll = 0;
  std::int32_t nsls = 0;
  std::int32_t has_fluid = 0;
  std::int32_t nreceivers = 0;
  std::int32_t nsources = 0;
  /// Clustered LTS: global cluster count (1 = global dt) — a snapshot can
  /// never silently cross to another cluster count — plus the
  /// interface-point count pinning the interpolation-buffer layout.
  std::int32_t lts_levels = 0;
  std::int32_t lts_ninterp = 0;
};

/// Cumulative phase-metric counters (ISSUE 3): saved so a resumed run's
/// end-of-run report carries the full history of the run it continues.
/// Wall-clock seconds are machine-dependent and excluded from any
/// bit-identity contract — only the *counts* are asserted by
/// test_checkpoint (a restored run must reproduce the same per-phase
/// segment counts as an uninterrupted one).
struct MetricsCheckpoint {
  std::int64_t steps = 0;
  double total_wall = 0.0;
  std::uint64_t counts[metrics::kNumPhases] = {0};
  double seconds[metrics::kNumPhases] = {0.0};
};

}  // namespace

template <class Self>
auto Simulation::marching_state(Self& self) {
  using Field = decltype(&self.displ_);
  // displ/veloc/accel: accel at end-of-step feeds the next predictor.
  std::vector<std::pair<std::string, Field>> state = {
      {"displ", &self.displ_}, {"veloc", &self.veloc_},
      {"accel", &self.accel_}};
  if (self.global_has_fluid_) {
    state.emplace_back("chi", &self.chi_);
    state.emplace_back("chi_dot", &self.chi_dot_);
    state.emplace_back("chi_ddot", &self.chi_ddot_);
  }
  for (std::size_t l = 0; l < self.r_mem_.size(); ++l)
    for (std::size_t c = 0; c < 5; ++c)
      state.emplace_back(
          "r_mem." + std::to_string(l) + "." + std::to_string(c),
          &self.r_mem_[l][c]);
  // Multi-cluster LTS: the latched per-cluster accelerations and the
  // stride-start interface snapshots are exactly what the masked
  // predictor reads mid-stride — without them a restored run would
  // diverge at the first slow-cluster substep.
  if (self.lts_num_levels_ > 1) {
    state.emplace_back("lts.a_pred", &self.a_pred_);
    state.emplace_back("lts.u0", &self.interp_u0_);
    state.emplace_back("lts.v0", &self.interp_v0_);
    state.emplace_back("lts.a0", &self.interp_a0_);
  }
  return state;
}

io::SnapshotWriter Simulation::checkpoint_snapshot() const {
  io::SnapshotWriter writer;

  CheckpointMeta meta;
  meta.step = it_;
  meta.time = time_;
  meta.dt = cfg_.dt;
  meta.nglob = mesh_.nglob;
  meta.nspec = mesh_.nspec;
  meta.ngll = mesh_.ngll;
  meta.nsls = static_cast<std::int32_t>(r_mem_.size());
  meta.has_fluid = global_has_fluid_ ? 1 : 0;
  meta.nreceivers = static_cast<std::int32_t>(receivers_.size());
  meta.nsources = static_cast<std::int32_t>(sources_.size());
  meta.lts_levels = lts_num_levels_;
  meta.lts_ninterp = static_cast<std::int32_t>(lts_interp_.points.size());
  writer.add_values("meta", &meta, 1);

  for (const auto& [name, field] : marching_state(*this))
    writer.add_values(name, field->data(), field->size());
  writer.add_vector("lts.clock", lts_clock_);

  for (std::size_t r = 0; r < receivers_.size(); ++r) {
    const Seismogram& s = receivers_[r].seis;
    writer.add_vector("recv." + std::to_string(r) + ".time", s.time);
    writer.add_values("recv." + std::to_string(r) + ".displ",
                      s.displ.empty() ? nullptr : s.displ.data()->data(),
                      s.displ.size() * 3);
  }

  if (profile_.enabled()) {
    MetricsCheckpoint mc;
    mc.steps = profile_.steps();
    mc.total_wall = profile_.total_wall_seconds();
    for (int p = 0; p < metrics::kNumPhases; ++p) {
      mc.counts[p] = profile_.phase_counts()[static_cast<std::size_t>(p)];
      mc.seconds[p] = profile_.phase_seconds()[static_cast<std::size_t>(p)];
    }
    writer.add_values("metrics", &mc, 1);
  }

  return writer;
}

void Simulation::write_checkpoint(const std::string& path,
                                  const io::SnapshotIdentity& identity) const {
  checkpoint_snapshot().write(path, identity);
}

void Simulation::write_checkpoint(io::BlobStore& store,
                                  const std::string& key,
                                  const io::SnapshotIdentity& identity) const {
  checkpoint_snapshot().write(store, key, identity);
}

std::int64_t checkpoint_step(const std::string& path,
                             const io::SnapshotIdentity& identity) {
  try {
    const io::SnapshotReader reader =
        io::SnapshotReader::open(path, identity);
    return reader.read_value<CheckpointMeta>("meta").step;
  } catch (const CheckError&) {
    return -1;  // missing / truncated / corrupted / wrong identity
  }
}

std::int64_t checkpoint_step(const io::BlobStore& store,
                             const std::string& key,
                             const io::SnapshotIdentity& identity) {
  try {
    const io::SnapshotReader reader =
        io::SnapshotReader::open(store, key, identity);
    return reader.read_value<CheckpointMeta>("meta").step;
  } catch (const CheckError&) {
    return -1;  // missing store/blob, torn container, wrong identity
  }
}

void Simulation::restore_checkpoint(const std::string& path,
                                    const io::SnapshotIdentity& identity) {
  restore_from(io::SnapshotReader::open(path, identity), path);
}

void Simulation::restore_checkpoint(const io::BlobStore& store,
                                    const std::string& key,
                                    const io::SnapshotIdentity& identity) {
  restore_from(io::SnapshotReader::open(store, key, identity),
               store.describe() + ":" + key);
}

void Simulation::restore_from(const io::SnapshotReader& reader,
                              const std::string& label) {
  const std::string& path = label;

  const auto meta = reader.read_value<CheckpointMeta>("meta");
  SFG_CHECK_MSG(meta.nglob == mesh_.nglob && meta.nspec == mesh_.nspec &&
                    meta.ngll == mesh_.ngll,
                "checkpoint '" << path << "' holds a mesh of nglob="
                               << meta.nglob << " nspec=" << meta.nspec
                               << " ngll=" << meta.ngll
                               << ", this simulation has nglob="
                               << mesh_.nglob << " nspec=" << mesh_.nspec
                               << " ngll=" << mesh_.ngll);
  SFG_CHECK_MSG(meta.dt == cfg_.dt, "checkpoint '"
                                        << path << "' was taken at dt="
                                        << meta.dt << ", this run uses dt="
                                        << cfg_.dt);
  SFG_CHECK_MSG(meta.nsls == static_cast<std::int32_t>(r_mem_.size()),
                "checkpoint '" << path << "' has " << meta.nsls
                               << " SLS memory-variable sets, this run has "
                               << r_mem_.size());
  SFG_CHECK_MSG(meta.has_fluid == (global_has_fluid_ ? 1 : 0),
                "checkpoint '" << path
                               << "' fluid flag does not match this run");
  SFG_CHECK_MSG(meta.nreceivers ==
                    static_cast<std::int32_t>(receivers_.size()),
                "checkpoint '" << path << "' recorded " << meta.nreceivers
                               << " receivers, this run has "
                               << receivers_.size());
  SFG_CHECK_MSG(meta.nsources == static_cast<std::int32_t>(sources_.size()),
                "checkpoint '" << path << "' had " << meta.nsources
                               << " sources, this run has "
                               << sources_.size());
  SFG_CHECK_MSG(meta.lts_levels == lts_num_levels_,
                "checkpoint '" << path << "' was taken with "
                               << meta.lts_levels
                               << " LTS cluster(s), this run has "
                               << lts_num_levels_);
  SFG_CHECK_MSG(
      meta.lts_ninterp ==
          static_cast<std::int32_t>(lts_interp_.points.size()),
      "checkpoint '" << path << "' holds " << meta.lts_ninterp
                     << " LTS interface points, this run has "
                     << lts_interp_.points.size());

  for (const auto& [name, field] : marching_state(*this)) {
    const auto v = reader.read_vector<float>(name);
    SFG_CHECK_MSG(v.size() == field->size(),
                  "checkpoint section '" << name << "' has " << v.size()
                                         << " floats, expected "
                                         << field->size());
    std::copy(v.begin(), v.end(), field->begin());
  }

  for (std::size_t r = 0; r < receivers_.size(); ++r) {
    Seismogram& s = receivers_[r].seis;
    s.time = reader.read_vector<double>("recv." + std::to_string(r) +
                                        ".time");
    const auto flat = reader.read_vector<double>("recv." +
                                                 std::to_string(r) +
                                                 ".displ");
    SFG_CHECK_MSG(flat.size() == s.time.size() * 3,
                  "checkpoint receiver " << r
                                         << " sample counts disagree");
    s.displ.resize(s.time.size());
    for (std::size_t i = 0; i < s.displ.size(); ++i)
      s.displ[i] = {flat[i * 3 + 0], flat[i * 3 + 1], flat[i * 3 + 2]};
  }

  // Optional section: snapshots written with metrics disabled (or by the
  // pre-ISSUE-3 format) simply leave the profile at its current state.
  if (profile_.enabled() && reader.has("metrics")) {
    const auto mc = reader.read_value<MetricsCheckpoint>("metrics");
    std::array<std::uint64_t, metrics::kNumPhases> counts{};
    std::array<double, metrics::kNumPhases> seconds{};
    for (int p = 0; p < metrics::kNumPhases; ++p) {
      counts[static_cast<std::size_t>(p)] = mc.counts[p];
      seconds[static_cast<std::size_t>(p)] = mc.seconds[p];
    }
    profile_.restore_counts(static_cast<int>(mc.steps), counts, seconds,
                            mc.total_wall);
  }

  const auto clock = reader.read_vector<std::int64_t>("lts.clock");
  SFG_CHECK_MSG(clock.size() == lts_clock_.size(),
                "checkpoint '" << path << "' holds " << clock.size()
                               << " LTS clocks, this run has "
                               << lts_clock_.size());
  // Clock soundness: clock[r] counts completed rate-r strides, so it must
  // equal step >> r — a snapshot violating that was written by a broken
  // marcher and cannot be resumed.
  for (std::size_t r = 0; r < clock.size(); ++r)
    SFG_CHECK_MSG(clock[r] == (meta.step >> r),
                  "checkpoint '" << path << "' LTS clock[" << r << "] = "
                                 << clock[r] << " disagrees with step "
                                 << meta.step << " (expected "
                                 << (meta.step >> r) << ")");
  lts_clock_ = clock;

  it_ = static_cast<int>(meta.step);
  time_ = meta.time;
}

}  // namespace sfg
