#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "mgs/simt/thread_pool.hpp"

namespace perfbench {

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

constexpr std::size_t kBlocks = 5;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string count(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

// Which end-to-end metric each layer should move, and on which workload.
constexpr const char* kPlannerMoves =
    "host_cpu_ms_p90, host_melem_per_cpu_s on shape_stream; ~0 on mps_steady";
constexpr const char* kExecutorMoves =
    "setup_s on mps_steady, comm_batch; host_cpu_ms_p50 on fault_recovery";
constexpr const char* kRunMoves = "host_cpu_ms_p50 on every workload";
constexpr const char* kWorkspaceMoves =
    "setup_s, peak_rss_mb everywhere; host_cpu_ms_p90 on shape_stream";
constexpr const char* kSimtHostMoves =
    "host_cpu_ms_p50 on mps_steady (bodies), comm_batch, shape_stream "
    "(dispatch)";
constexpr const char* kSimtModelMoves = "modeled_ms_per_call on mps_steady";
constexpr const char* kTopoMoves = "modeled_ms_per_call on comm_batch";
constexpr const char* kPipelineMoves =
    "modeled_ms_per_call on comm_batch (overlap), fault_recovery (recovery)";
constexpr const char* kFaultMoves =
    "modeled_ms_per_call, ok_frac on fault_recovery; 0 on the other three";
constexpr const char* kObsMoves =
    "host_cpu_ms_p50 everywhere (tracing off must stay free)";

}  // namespace

/// A host statistic taken per block of consecutive calls, reduced to the
/// median over kBlocks blocks: a burst of outside load during one block
/// does not move it.
template <typename Stat>
double block_median(const std::vector<CallRecord>& recs,
                    double CallRecord::*field, Stat stat) {
  std::vector<double> per_block;
  const std::size_t n = recs.size();
  for (std::size_t b = 0; b < kBlocks && n >= kBlocks; ++b) {
    std::vector<double> ms;
    double elements = 0;
    for (std::size_t i = n * b / kBlocks; i < n * (b + 1) / kBlocks; ++i) {
      ms.push_back(recs[i].*field);
      elements += static_cast<double>(recs[i].elements);
    }
    per_block.push_back(stat(ms, elements));
  }
  return percentile(per_block, 0.5);
}

/// p50, p90 and Melem per second of one host clock (a CallRecord field).
std::vector<Metric> host_metrics(const RunSummary& run,
                                 double CallRecord::*field,
                                 const std::string& prefix,
                                 const std::string& throughput_name,
                                 const std::string& note) {
  const std::string blocks = "median of " + std::to_string(kBlocks) +
                             " blocks of " +
                             count(run.records.size() / kBlocks, "calls");
  const auto quantile = [](double q) {
    return [q](const std::vector<double>& ms, double) {
      return percentile(ms, q);
    };
  };
  const auto throughput = [](const std::vector<double>& ms, double elements) {
    double total = 0;
    for (const double m : ms) total += m;
    return ratio(elements, total * 1e-3) * 1e-6;
  };
  return {
      {prefix + "_p50", block_median(run.records, field, quantile(0.5)), "ms",
       blocks, note},
      {prefix + "_p90", block_median(run.records, field, quantile(0.9)), "ms",
       blocks, note},
      {throughput_name, block_median(run.records, field, throughput),
       "Melem/s", "sum n*g / sum call seconds, " + blocks, note},
  };
}

std::vector<Metric> wall_clock_metrics(const RunSummary& run) {
  return host_metrics(run, &CallRecord::host_ms, "host_wall_ms",
                      "host_melem_per_wall_s",
                      "reported, not gated: moves with outside load");
}

std::vector<Metric> end_to_end_metrics(const RunSummary& run) {
  const auto& recs = run.records;
  double modeled_s = 0;
  std::size_t failed = 0;
  for (const CallRecord& r : recs) failed += r.ok ? 0 : 1;
  for (std::size_t i = 0; i < run.window_calls; ++i) {
    modeled_s += recs[i].modeled_s;
  }
  const std::string window =
      "mean over the " + std::to_string(run.window_calls) + "-call window";
  std::vector<Metric> out =
      host_metrics(run, &CallRecord::cpu_ms, "host_cpu_ms",
                   "host_melem_per_cpu_s", "process CPU time, all threads");
  out.insert(out.end(), {
      {"modeled_ms_per_call",
       ratio(modeled_s, static_cast<double>(run.window_calls)) * 1e3,
       "model_ms", window, "lower is better; repeats exactly"},
      {"setup_s", percentile(run.setup_s, 0.5), "s",
       "median of " + count(run.setup_s.size(), "set-ups"), "lower is better"},
      {"peak_rss_mb", run.peak_rss_mb, "MB", "getrusage ru_maxrss",
       "lower is better"},
      {"ok_frac",
       ratio(static_cast<double>(recs.size() - failed),
             static_cast<double>(recs.size())),
       "ratio",
       std::to_string(recs.size() - failed) + " of " +
           count(recs.size(), "calls ok"),
       "higher is better"},
  });
  return out;
}

std::vector<Metric> per_layer_metrics(const RunSummary& run) {
  const auto& recs = run.records;
  const std::size_t window = run.window_calls;

  // Deterministic counts and modeled times: the fixed window.
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t allocs = run.setup_allocations, reuses = run.setup_reuses;
  double stage1 = 0, stage2 = 0, stage3 = 0, recovery = 0, retry_s = 0;
  std::uint64_t retries = 0, resumed = 0, degraded = 0;
  LayerSample tw;  // sums over the traced calls of the window
  std::size_t traced_window = 0;
  for (std::size_t i = 0; i < window; ++i) {
    const CallRecord& r = recs[i];
    hits += r.plan_hits;
    misses += r.plan_misses;
    allocs += r.allocations;
    reuses += r.reuses;
    stage1 += r.stage1_s;
    stage2 += r.stage2_comm_s;
    stage3 += r.stage3_s;
    recovery += r.recovery_s;
    retries += r.retries;
    retry_s += r.retry_s;
    resumed += r.resumed ? 1 : 0;
    degraded += r.degraded ? 1 : 0;
    if (!r.layer) continue;
    ++traced_window;
    const LayerSample& s = *r.layer;
    tw.launches += s.launches;
    tw.kernel_bytes += s.kernel_bytes;
    tw.transfers += s.transfers;
    tw.p2p_bytes += s.p2p_bytes;
    tw.host_staged_bytes += s.host_staged_bytes;
    tw.mpi_ops += s.mpi_ops;
    tw.spans += s.spans;
    tw.compute_s += s.compute_s;
    tw.p2p_s += s.p2p_s;
    tw.host_staged_s += s.host_staged_s;
    tw.mpi_s += s.mpi_s;
    tw.idle_s += s.idle_s;
    tw.critical_s += s.critical_s;
  }

  // Host-clock samples: the whole loop.
  std::vector<double> probe_miss = run.setup_probe_ms;
  std::vector<double> prepare, run_untraced, host_traced, host_untraced;
  double run_untraced_ms = 0, launches_traced = 0;
  std::size_t traced = 0;
  for (const CallRecord& r : recs) {
    if (r.probe_ms && r.probe_missed) probe_miss.push_back(*r.probe_ms);
    prepare.push_back(r.prepare_ms);
    if (r.layer) {
      host_traced.push_back(r.host_ms);
      launches_traced += r.layer->launches;
      ++traced;
    } else {
      host_untraced.push_back(r.host_ms);
      run_untraced.push_back(r.run_ms);
      run_untraced_ms += r.run_ms;
    }
  }

  const double nw = static_cast<double>(window);
  const double ntw = static_cast<double>(traced_window);
  const std::string per_window = "per call, " + count(window, "window calls");
  const std::string per_traced =
      "per call, " + count(traced_window, "traced window calls");
  const double launches_per_call = ratio(tw.launches, ntw);
  const double untraced_p50 = percentile(host_untraced, 0.5);
  return {
      {"planner.plan_ms_miss_p50", percentile(probe_miss, 0.5), "ms",
       "median of " + count(probe_miss.size(), "plan_for misses"),
       kPlannerMoves},
      {"planner.plan_misses", static_cast<double>(misses), "count",
       count(window, "window calls"), kPlannerMoves},
      {"planner.plan_hits", static_cast<double>(hits), "count",
       count(window, "window calls"), kPlannerMoves},
      {"planner.plan_lookups", static_cast<double>(hits + misses), "count",
       count(window, "window calls"), kPlannerMoves},
      {"planner.hit_ratio",
       ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
       "ratio",
       std::to_string(hits) + " hits / " + std::to_string(hits + misses) +
           " lookups",
       kPlannerMoves},
      {"executor.setup_prepare_ms_p50", percentile(run.setup_prepare_ms, 0.5),
       "ms", "median of " + count(run.setup_prepare_ms.size(), "set-up prepares"),
       kExecutorMoves},
      {"executor.prepare_ms_p50", percentile(prepare, 0.5), "ms",
       "median of " + count(prepare.size(), "calls"), kExecutorMoves},
      {"executor.run_ms_p50", percentile(run_untraced, 0.5), "ms",
       "median of " + count(run_untraced.size(), "untraced calls"), kRunMoves},
      {"workspace.device_allocations", static_cast<double>(allocs), "count",
       "set-up + window", kWorkspaceMoves},
      {"workspace.reuses", static_cast<double>(reuses), "count",
       "set-up + window", kWorkspaceMoves},
      {"workspace.reuse_ratio",
       ratio(static_cast<double>(reuses), static_cast<double>(reuses + allocs)),
       "ratio",
       std::to_string(reuses) + " reuses / " + std::to_string(reuses + allocs) +
           " acquisitions",
       kWorkspaceMoves},
      {"simt.launches_per_call", launches_per_call, "count", per_traced,
       kSimtHostMoves},
      {"simt.host_us_per_launch",
       ratio(ratio(run_untraced_ms, static_cast<double>(run_untraced.size())) *
                 1e3,
             ratio(launches_traced, static_cast<double>(traced))),
       "us", "mean untraced run us / mean launches per traced call",
       kSimtHostMoves},
      {"simt.empty_launch_us", run.empty_launch_us, "us",
       "median empty-body launch, 256 x 128 grid", kSimtHostMoves},
      {"simt.modeled_compute_ms", ratio(tw.compute_s, ntw) * 1e3, "model_ms",
       per_traced, kSimtModelMoves},
      {"simt.kernel_mb_per_call", ratio(tw.kernel_bytes, ntw) * 1e-6, "MB",
       per_traced, kSimtModelMoves},
      {"topo.transfers_per_call", ratio(tw.transfers, ntw), "count", per_traced,
       kTopoMoves},
      {"topo.p2p_mb_per_call", ratio(tw.p2p_bytes, ntw) * 1e-6, "MB",
       per_traced, kTopoMoves},
      {"topo.host_staged_mb_per_call", ratio(tw.host_staged_bytes, ntw) * 1e-6,
       "MB", per_traced, kTopoMoves},
      {"topo.modeled_p2p_ms", ratio(tw.p2p_s, ntw) * 1e3, "model_ms",
       per_traced, kTopoMoves},
      {"topo.modeled_host_staged_ms", ratio(tw.host_staged_s, ntw) * 1e3,
       "model_ms", per_traced, kTopoMoves},
      {"msg.mpi_ops_per_call", ratio(tw.mpi_ops, ntw), "count", per_traced,
       kTopoMoves},
      {"msg.modeled_mpi_ms", ratio(tw.mpi_s, ntw) * 1e3, "model_ms", per_traced,
       kTopoMoves},
      {"pipeline.modeled_critical_ms", ratio(tw.critical_s, ntw) * 1e3,
       "model_ms", per_traced + " (sum of the categories)", kPipelineMoves},
      {"pipeline.modeled_idle_ms", ratio(tw.idle_s, ntw) * 1e3, "model_ms",
       per_traced, kPipelineMoves},
      {"stage.stage1_ms", ratio(stage1, nw) * 1e3, "model_ms", per_window,
       kPipelineMoves},
      {"stage.stage2_comm_ms", ratio(stage2, nw) * 1e3, "model_ms", per_window,
       kPipelineMoves},
      {"stage.stage3_ms", ratio(stage3, nw) * 1e3, "model_ms", per_window,
       kPipelineMoves},
      {"stage.recovery_ms", ratio(recovery, nw) * 1e3, "model_ms", per_window,
       kPipelineMoves},
      {"fault.retries_per_call", ratio(static_cast<double>(retries), nw),
       "count", per_window, kFaultMoves},
      {"fault.modeled_retry_ms", ratio(retry_s, nw) * 1e3, "model_ms",
       per_window, kFaultMoves},
      {"fault.resumed_runs", static_cast<double>(resumed), "count",
       count(window, "window calls"), kFaultMoves},
      {"fault.degraded_runs", static_cast<double>(degraded), "count",
       count(window, "window calls"), kFaultMoves},
      {"obs.spans_per_call", ratio(tw.spans, ntw), "count", per_traced,
       kObsMoves},
      {"obs.trace_overhead_pct",
       untraced_p50 == 0.0
           ? 0.0
           : (percentile(host_traced, 0.5) / untraced_p50 - 1.0) * 100.0,
       "%",
       "wall p50 of " + count(host_traced.size(), "traced") + " vs " +
           count(host_untraced.size(), "untraced calls"),
       kObsMoves},
      {"calls.window", nw, "count", "calls every run completes", "-"},
      {"calls.traced_in_window", ntw, "count", "base of the per-call means",
       "-"},
  };
}

std::string format_table(const std::vector<Metric>& metrics) {
  std::size_t w_name = 6, w_value = 5, w_unit = 4, w_base = 4;
  std::vector<std::string> values;
  for (const Metric& m : metrics) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    values.emplace_back(buf);
    w_name = std::max(w_name, m.name.size());
    w_value = std::max(w_value, values.back().size());
    w_unit = std::max(w_unit, m.unit.size());
    w_base = std::max(w_base, m.base.size());
  }
  std::ostringstream os;
  auto row = [&](const std::string& a, const std::string& b,
                 const std::string& c, const std::string& d,
                 const std::string& e) {
    char buf[1024];
    std::snprintf(buf, sizeof buf, "%-*s  %*s  %-*s  %-*s  %s\n",
                  static_cast<int>(w_name), a.c_str(),
                  static_cast<int>(w_value), b.c_str(),
                  static_cast<int>(w_unit), c.c_str(),
                  static_cast<int>(w_base), d.c_str(), e.c_str());
    os << buf;
  };
  row("metric", "value", "unit", "base", "should move");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    row(m.name, values[i], m.unit, m.base, m.moves);
  }
  return os.str();
}

bool optimized_build() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string environment_json(const Options& opt) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"pool_workers\": " << mgs::simt::ThreadPool::instance().workers()
     << ", \"compiler\": " << str(PERFBENCH_COMPILER)
     << ", \"build_type\": " << str(PERFBENCH_BUILD_TYPE)
     << ", \"ndebug\": " << (ndebug ? "true" : "false")
     << ", \"optimized\": " << (optimized_build() ? "true" : "false")
     << ", \"git_sha\": " << str(opt.git_sha) << ", \"seed\": " << opt.seed
     << ", \"workload\": " << str(opt.workload)
     << ", \"trace\": " << (opt.trace ? 1 : 0) << "}";
  return os.str();
}

std::string result_line(const RunSummary& run,
                        const std::vector<Metric>& metrics) {
  std::size_t failed = 0;
  for (const CallRecord& r : run.records) failed += r.ok ? 0 : 1;
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << run.records.size() << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << str(metrics[i].name) << ": {\"value\": " << num(metrics[i].value)
       << ", \"unit\": " << str(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string report_json(const RunSummary& run, const std::vector<Metric>& rows,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"schema\": \"mgs-perfbench-report-v1\",\n \"env\": "
     << environment_json(run.opt) << ",\n \"calls\": " << run.records.size()
     << ", \"window_calls\": " << run.window_calls << ",\n \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Metric& m = rows[i];
    os << (i == 0 ? "\n  " : ",\n  ") << "{\"name\": " << str(m.name)
       << ", \"value\": " << num(m.value) << ", \"unit\": " << str(m.unit)
       << ", \"base\": " << str(m.base) << ", \"should_move\": "
       << str(m.moves) << "}";
  }
  os << "],\n \"stream\": [";
  for (std::size_t i = 0; i < run.stream.size(); ++i) {
    os << (i == 0 ? "" : ", ") << str(run.stream[i]);
  }
  os << "],\n \"errors\": [";
  std::size_t shown = 0;
  for (const CallRecord& r : run.records) {
    if (r.ok || shown == 10) continue;
    os << (shown++ == 0 ? "" : ", ") << str(r.key + ": " + r.error);
  }
  os << "],\n \"result\": " << result_line(run, metrics) << "}\n";
  return os.str();
}

}  // namespace perfbench
