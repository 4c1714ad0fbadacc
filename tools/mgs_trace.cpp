/// mgs_trace: inspect exported mgs JSON run-reports (docs/observability.md).
///
///   mgs_trace --in report.json              print the run summary, phase
///                                           breakdown and critical-path
///                                           attribution tables
///   mgs_trace --in report.json --perfetto t.json   re-export the spans as a
///                                           Chrome/Perfetto trace
///   mgs_trace --in report.json --prometheus m.prom re-export the metrics
///   mgs_trace --demo --out DIR              run a traced 4-GPU Scan-MPS in
///                                           process, write run_report.json,
///                                           trace.perfetto.json and
///                                           metrics.prom into DIR, then load
///                                           the report back and print it
///
/// The demo runs at the point of the committed baselines (n=2^20, g=4,
/// W=4), so `mgs_perf diff bench_results/BENCH_baseline.json
/// DIR/run_report.json` gates it exactly; --dtype/--op pick the cell
/// (BENCH_baseline_<dtype>_<op>.json) and --faults seeds a fault schedule
/// into the run, e.g. --faults straggler:dev=1,factor=8.
///
/// The critical path is always re-derived from the spans on load, so the
/// printed attribution agrees with the analyzer even if the file's
/// critical_path section was edited or produced by an older build.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "mgs/core/api.hpp"
#include "mgs/obs/report.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

namespace {

using namespace mgs;

void print_report(const obs::RunReport& rep) {
  const auto& run = rep.run;
  std::printf("run: %s  n=%llu  devices=%d  makespan=%.3f us  payload=%llu B\n",
              run.executor.empty() ? "(unnamed)" : run.executor.c_str(),
              static_cast<unsigned long long>(run.n), run.devices,
              run.seconds * 1e6,
              static_cast<unsigned long long>(run.payload_bytes));
  if (run.seconds > 0.0 && run.payload_bytes > 0) {
    std::printf("throughput: %.2f GB/s (simulated)\n",
                static_cast<double>(run.payload_bytes) / run.seconds / 1e9);
  }

  if (!run.breakdown.empty()) {
    std::printf("\nphase breakdown (RunResult::breakdown):\n");
    util::Table table({"phase", "us", "% of makespan"});
    for (const auto& [phase, seconds] : run.breakdown) {
      table.add_row({phase, util::fmt_double(seconds * 1e6, 1),
                     util::fmt_double(
                         run.seconds > 0.0 ? seconds / run.seconds * 100.0
                                           : 0.0,
                         1)});
    }
    table.print(std::cout);
  }

  if (!run.fault_counters.empty()) {
    std::printf("\nfault counters:\n");
    for (const auto& [key, value] : run.fault_counters) {
      std::printf("  %-24s %llu\n", key.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  std::printf("\nrecorded: %zu spans, %zu metric series\n", rep.spans.size(),
              rep.metrics.size());
  std::printf("\n%s", obs::format_report(rep.critical_path).c_str());
}

/// Prepare and run `ex` over G problems of N elements of the baselines'
/// data (util::random_i32(N*G, 42) converted to T).
template <typename T>
core::RunResult run_scan(core::ScanExecutor& ex, std::int64_t n,
                         std::int64_t g) {
  const auto seed = util::random_i32(static_cast<std::size_t>(n * g), 42);
  const std::vector<T> data(seed.begin(), seed.end());
  std::vector<T> out(data.size());
  ex.prepare(n, g);
  return ex.run(std::span<const T>(data), std::span<T>(out),
                core::ScanKind::kInclusive);
}

core::RunResult run_scan(core::ScanExecutor& ex, std::int64_t n,
                         std::int64_t g) {
  switch (ex.dtype()) {
    case core::DType::kI32: return run_scan<std::int32_t>(ex, n, g);
    case core::DType::kI64: return run_scan<std::int64_t>(ex, n, g);
    case core::DType::kU32: return run_scan<std::uint32_t>(ex, n, g);
    case core::DType::kF32: return run_scan<float>(ex, n, g);
    case core::DType::kF64: return run_scan<double>(ex, n, g);
  }
  MGS_REQUIRE(false, "mgs_trace: unhandled dtype");
  return {};
}

/// Run a traced 4-GPU Scan-MPS of the (dtype, op) cell, with the `faults`
/// schedule attached when non-empty, and leave the three artifacts in
/// `dir`.
int run_demo(const std::string& dir, core::DType dtype, core::OpTag op,
             const std::string& faults) {
  std::filesystem::create_directories(dir);

  obs::TraceSession ts;
  auto cluster = topo::tsubame_kfc_cluster(1);
  core::ScanContext ctx(cluster);
  std::unique_ptr<sim::FaultInjector> injector;
  if (!faults.empty()) {
    injector =
        std::make_unique<sim::FaultInjector>(sim::parse_fault_plan(faults));
    cluster.set_fault_injector(injector.get());
  }
  core::ExecutorParams params;
  params.w = 4;
  params.dtype = dtype;
  params.op = op;
  auto ex = core::make_executor("Scan-MPS", ctx, params);

  const std::int64_t n = 1 << 20;
  const std::int64_t g = 4;
  const auto r = run_scan(*ex, n, g);

  const auto info = core::make_run_info(ex->name(), n, params.w, r, dtype, op);
  const std::string report_path = dir + "/run_report.json";
  core::write_run_report_file(report_path, info, ts);
  core::write_chrome_trace_file(dir + "/trace.perfetto.json", ts);
  core::write_prometheus_file(dir + "/metrics.prom", ts);
  std::printf("demo: wrote %s, trace.perfetto.json, metrics.prom\n\n",
              report_path.c_str());

  // Round-trip through the file so the demo exercises the loader too.
  print_report(obs::load_run_report(report_path));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli(argc, argv);
    cli.describe("in", "run-report JSON to load and print");
    cli.describe("perfetto", "also write a Chrome/Perfetto trace here");
    cli.describe("prometheus", "also write Prometheus text metrics here");
    cli.describe("demo", "run a traced 4-GPU Scan-MPS demo in process");
    cli.describe("out", "output directory for --demo (default obs_sample)");
    cli.describe("dtype", "--demo element type: i32 (default), i64, u32, "
                          "f32, f64");
    cli.describe("op", "--demo scan operator: plus (default), max, min");
    cli.describe("faults",
                 "--demo fault-injection spec, e.g. "
                 "'straggler:dev=1,factor=8' (see sim/fault.hpp)");
    if (cli.help_requested()) {
      cli.print_help(
          "Load an mgs run-report and print its critical-path attribution.");
      return 0;
    }
    cli.reject_unknown();

    if (cli.get_bool("demo", false)) {
      return run_demo(cli.get_string("out", "obs_sample"),
                      core::parse_dtype(cli.get_string("dtype", "i32")),
                      core::parse_op(cli.get_string("op", "plus")),
                      cli.get_string("faults", ""));
    }

    const std::string in = cli.get_string("in", "");
    if (in.empty()) {
      std::fprintf(stderr,
                   "mgs_trace: pass --in <run_report.json> or --demo "
                   "(--help for usage)\n");
      return 2;
    }
    const auto rep = obs::load_run_report(in);
    print_report(rep);
    const std::string perfetto = cli.get_string("perfetto", "");
    if (!perfetto.empty()) {
      std::ofstream os(perfetto);
      MGS_REQUIRE(os.good(), "mgs_trace: cannot open " + perfetto);
      obs::write_chrome_trace(os, rep.spans, rep.metrics);
      std::printf("\nwrote %s\n", perfetto.c_str());
    }
    const std::string prom = cli.get_string("prometheus", "");
    if (!prom.empty()) {
      std::ofstream os(prom);
      MGS_REQUIRE(os.good(), "mgs_trace: cannot open " + prom);
      obs::write_prometheus(os, rep.metrics);
      std::printf("wrote %s\n", prom.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgs_trace: %s\n", e.what());
    return 1;
  }
}
