#pragma once
/// \file report.hpp
/// Turns the records of one benchmark run into named metrics, the aligned
/// per-layer text table, the environment stamp and the JSON outputs.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Everything one run measured.
struct RunSummary {
  Options opt;
  std::vector<CallRecord> records;  ///< every timed call, in order
  std::size_t window_calls = 0;     ///< records[0, window_calls) = window
  std::vector<double> setup_s;      ///< one entry per set-up
  std::vector<double> setup_probe_ms;    ///< plan_for misses, all set-ups
  std::vector<double> setup_prepare_ms;  ///< prepare() calls, all set-ups
  std::uint64_t setup_allocations = 0;   ///< latest set-up
  std::uint64_t setup_reuses = 0;
  double peak_rss_mb = 0;
  double empty_launch_us = 0;  ///< traced runs only
  std::vector<std::string> stream;  ///< Workload::describe_stream
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;   ///< the counts or sample size behind the value
  std::string moves;  ///< end-to-end metric and workload it should move
};

/// The end-to-end metrics (untraced runs) and the per-layer metrics
/// (traced runs), in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const RunSummary& run);
std::vector<Metric> per_layer_metrics(const RunSummary& run);
/// Wall-clock p50/p90/throughput: printed and reported, not gated (they
/// move with outside load on a shared machine).
std::vector<Metric> wall_clock_metrics(const RunSummary& run);

/// Aligned text table: metric, value, unit, base, should move.
std::string format_table(const std::vector<Metric>& metrics);

/// True for an optimized build with assertions off; results from any
/// other build are flagged.
bool optimized_build();
/// Environment stamp as a JSON object.
std::string environment_json(const Options& opt);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(const RunSummary& run,
                        const std::vector<Metric>& metrics);

/// The full report: environment, every row with its base counts and
/// mapping, the stream description, the first errors and the result line
/// (over the gated `metrics`).
std::string report_json(const RunSummary& run, const std::vector<Metric>& rows,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
