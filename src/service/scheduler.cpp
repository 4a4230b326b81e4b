#include "service/scheduler.hpp"

#include <cmath>
#include <mutex>
#include <sstream>

#include "common/check.hpp"
#include "perf/capacity.hpp"

namespace sfg::service {

namespace {
constexpr int kNgll = 5;  ///< degree-4 elements, as everywhere in the repo
}

double CostModel::seconds_per_flop() const {
  const MachineSpec& m = machine != nullptr ? *machine : franklin();
  return 1.0 / (sustained_gflops_per_core(m) * 1e9);
}

double predict_job_flops_per_step(const JobRequest& r) {
  SFG_CHECK_MSG(r.nex > 0, "job nex must be positive");
  const KernelProfile profile = sem_kernel_profile(kNgll, false);
  const double elements = static_cast<double>(r.nex) *
                          static_cast<double>(r.nex) *
                          static_cast<double>(r.nex);
  return elements * profile.flops_per_element;
}

double predict_core_seconds(const JobRequest& r, const CostModel& model) {
  return priced_core_seconds(r, r.nsteps, model);
}

double priced_core_seconds(const JobRequest& r, std::int64_t steps_executed,
                           const CostModel& model) {
  if (steps_executed <= 0) return 0.0;
  return predict_job_flops_per_step(r) *
         static_cast<double>(steps_executed) * model.seconds_per_flop();
}

Scheduler::Scheduler(const AdmissionPolicy& policy, const CostModel& model)
    : policy_(policy), model_(model) {}

std::optional<double> Scheduler::admit(const JobRequest& r,
                                       RejectionReason* why) {
  auto reject = [&](const std::string& msg) -> std::optional<double> {
    if (why != nullptr) why->message = msg;
    return std::nullopt;
  };

  if (r.nex <= 0) return reject("nex must be positive");
  if (r.nranks < 1) return reject("nranks must be >= 1");
  if (r.nranks > 1 && r.nex % r.nranks != 0)
    return reject("nex must divide evenly across nranks slices");
  if (r.nsteps <= 0) return reject("nsteps must be positive");
  // Non-finite numbers never reach the solver: an infinite dt would
  // march to a NaN seismogram and cache it under the request's key.
  if (!(std::isfinite(r.dt) && r.dt > 0.0))
    return reject("dt must be positive and finite");
  if (!(std::isfinite(r.extent_m) && r.extent_m > 0.0))
    return reject("extent_m must be positive and finite");
  const SourceSpec& src = r.source;
  for (double v : {src.x, src.y, src.z, src.force[0], src.force[1],
                   src.force[2], src.f0, src.t0})
    if (!std::isfinite(v))
      return reject("source position, force, f0 and t0 must be finite");
  if (r.stations.empty()) return reject("at least one station required");
  for (const StationSpec& st : r.stations)
    if (!(std::isfinite(st.x) && std::isfinite(st.y) && std::isfinite(st.z)))
      return reject("station coordinates must be finite");
  if (r.checkpoint_interval_steps < 0)
    return reject("checkpoint interval must be >= 0");
  if (!r.fault.empty() && r.nranks < 2)
    return reject("injected rank death needs nranks >= 2 (serial runs "
                  "have no communicator to fire it)");
  if (!r.fault.empty() && r.fault.kill_rank >= r.nranks)
    return reject("fault kill_rank outside the job's rank range");

  const double cost = predict_core_seconds(r, model_);
  if (cost > policy_.max_job_core_seconds) {
    std::ostringstream os;
    os << "predicted " << cost << " core-seconds exceeds the per-job gate "
       << policy_.max_job_core_seconds;
    return reject(os.str());
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (committed_ + cost > policy_.max_campaign_core_seconds) {
    std::ostringstream os;
    os << "campaign budget exhausted: " << committed_ << " committed + "
       << cost << " requested > " << policy_.max_campaign_core_seconds;
    return reject(os.str());
  }
  committed_ += cost;
  return cost;
}

double Scheduler::committed_core_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_;
}

}  // namespace sfg::service
