// Layer-by-layer benchmark: the command-line entry point.
//
//   layerbench --workload <globe_1t|campaign_zipf|campaign_cold>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--repo <checkout root>] [--out <work dir>]
//
// Narration goes to stderr; the last stdout line is the result object
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes <out>/trace_<workload>.json). Exits 1 when
// a correctness check fails, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "layerbench.hpp"

namespace {

using layerbench::Metric;

/// Every metric a mode reports, with its unit. The end-to-end set must be
/// produced by every workload; a per-layer metric a workload does not
/// exercise reads 0 (the "predicted flat" column of README.md).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"step_ms", "ms"},
    {"step_ms_p95", "ms"},     {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},  {"jobs_per_min", "1/min"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"sphere.mesh_build_s", "s"},
    {"solver.construct_s", "s"},
    {"solver.predictor_ms", "ms"},
    {"solver.corrector_ms", "ms"},
    {"solver.mass_ms", "ms"},
    {"solver.stream_gbps", "GB/s"},
    {"solver.solid_ms", "ms"},
    {"kernels.solid_elems_per_s", "1/s"},
    {"solver.gflops", "GFLOP/s"},
    {"solver.fluid_ms", "ms"},
    {"solver.source_ms", "ms"},
    {"solver.record_ms", "ms"},
    {"solver.unaccounted_ms", "ms"},
    {"solver.step_wall_ms", "ms"},
    {"pool.step_wall_ms", "ms"},
    {"pool.fluid_ms", "ms"},
    {"pool.busy_mean_frac", "fraction"},
    {"pool.busy_min_frac", "fraction"},
    {"trace_overhead_pct", "%"},
    {"frontend.submit_us_p50", "us"},
    {"frontend.submit_us_p95", "us"},
    {"cache.memory_hits", "count"},
    {"cache.store_hits", "count"},
    {"cache.coalesced_hits", "count"},
    {"cache.executed", "count"},
    {"cache.hit_ratio", "fraction"},
    {"latency.memory_ms_p50", "ms"},
    {"latency.store_ms_p50", "ms"},
    {"latency.coalesced_ms_p50", "ms"},
    {"latency.miss_ms_p50", "ms"},
    {"queue.stolen", "count"},
    {"queue.spilled", "count"},
    {"queue.peak", "count"},
    {"shard.exec_imbalance", "ratio"},
    {"worker.execute_ms", "ms"},
    {"worker.mesh_cache_hit_ratio", "fraction"},
    {"worker.retries", "count"},
    {"store.put_ms", "ms"},
    {"store.load_ms", "ms"},
    {"store.file_count", "count"},
    {"loadgen.lag_ms_p95", "ms"},
    {"host.stream_gbps", "GB/s"},
    {"host.llc_mb", "MB"},
    {"host.array_mb", "MB"},
    {"host.nproc", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "layerbench: " << why
            << "\nusage: layerbench --workload <globe_1t|campaign_zipf|"
               "campaign_cold> --seed <n> --seconds <s> "
               "--trace <0|1> [--repo <dir>] [--out <dir>]\n";
  std::exit(2);
}

layerbench::Options parse(int argc, char** argv) {
  layerbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = std::stoi(value) != 0;
      else if (flag == "--repo") o.repo_root = value;
      else if (flag == "--out") o.out_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Order `got` by `table`, filling per-layer gaps with 0; throws when an
/// end-to-end metric is missing or a name is not in the table.
std::vector<Metric> complete(
    const std::vector<Metric>& got,
    const std::vector<std::pair<std::string, std::string>>& table,
    bool fill_missing) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : got) by_name[m.name] = &m;
  std::vector<Metric> out;
  for (const auto& [name, unit] : table) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      if (!fill_missing)
        throw std::runtime_error("workload did not report " + name);
      out.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second->unit != unit)
      throw std::runtime_error(name + " reported in " + it->second->unit +
                               ", table says " + unit);
    if (!std::isfinite(it->second->value))
      throw std::runtime_error(name + " is not a finite number");
    out.push_back(*it->second);
    by_name.erase(it);
  }
  if (!by_name.empty())
    throw std::runtime_error("metric " + by_name.begin()->first +
                             " is not in the metric table");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const layerbench::Options o = parse(argc, argv);
  try {
    std::filesystem::create_directories(o.out_dir);
    layerbench::Tracer tracer(o.trace);
    std::cerr << "layerbench: workload " << o.workload << ", seed " << o.seed
              << ", " << o.seconds << " s, trace " << o.trace << "\n";
    const layerbench::CpuTimes cpu0 = layerbench::cpu_times();
    layerbench::RunResult r;
    if (o.workload == "globe_1t")
      r = layerbench::run_globe(o, tracer);
    else if (o.workload == "campaign_zipf")
      r = layerbench::run_campaign(o, false, tracer);
    else if (o.workload == "campaign_cold")
      r = layerbench::run_campaign(o, true, tracer);
    else
      usage("unknown workload " + o.workload);

    const layerbench::CpuTimes cpu1 = layerbench::cpu_times();
    if (cpu1.total > cpu0.total) {
      const double all = static_cast<double>(cpu1.total - cpu0.total);
      std::cerr << "  host CPU time during the run: steal "
                << 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) / all
                << " %, iowait "
                << 100.0 * static_cast<double>(cpu1.iowait - cpu0.iowait) / all
                << " %\n";
    }

    if (o.trace) {
      const layerbench::HostInfo h = layerbench::probe_host();
      std::cerr << "  host: nproc " << h.nproc << ", LLC " << (h.llc_bytes >> 20)
                << " MiB, triad arrays " << (h.array_bytes >> 20)
                << " MiB each, triad " << h.stream_gbps << " GB/s, ISA "
                << h.isa << "\n";
      r.add("host.stream_gbps", h.stream_gbps, "GB/s");
      r.add("host.llc_mb", static_cast<double>(h.llc_bytes) / (1 << 20), "MB");
      r.add("host.array_mb", static_cast<double>(h.array_bytes) / (1 << 20),
            "MB");
      r.add("host.nproc", h.nproc, "count");
      const std::string path =
          o.out_dir + "/trace_" + o.workload + ".json";
      std::ofstream out(path);
      tracer.write_chrome_trace(out);
      std::cerr << "  trace: " << tracer.spans().size() << " spans -> " << path
                << "\n";
    }

    const auto metrics =
        complete(r.metrics, o.trace ? kPerLayer : kEndToEnd, o.trace);
    for (const std::string& e : r.errors)
      std::cerr << "layerbench: CHECK FAILED: " << e << "\n";
    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      line += (i ? ", " : "") + json_string(metrics[i].name) +
              ": {\"value\": " + value +
              ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    line += "}}";
    std::cout << line << std::endl;
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "layerbench: error: " << e.what() << "\n";
    return 1;
  }
}
