/// mgs_perfbench: the repository benchmark runner. Runs one seeded workload
/// in a closed loop (one calling thread, one call outstanding, no think
/// time) for a fixed wall-clock budget and prints its metrics: the
/// end-to-end set untraced (--trace 0) or the per-layer set (--trace 1),
/// an aligned table, and as the last line one JSON result object.
///
///   mgs_perfbench --workload mps_steady --seed 1 --seconds 10 --trace 0
///                 [--setups 9] [--min-calls 500] [--small]
///                 [--report FILE] [--git-sha SHA]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"
#include "mgs/simt/launch.hpp"
#include "mgs/topo/topology.hpp"
#include "report.hpp"

namespace {

using perfbench::Options;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "mgs_perfbench: %s\nusage: mgs_perfbench --workload "
               "{mps_steady|shape_stream|comm_batch|fault_recovery} --seed N "
               "--seconds S --trace {0|1} [--setups K] [--min-calls C] "
               "[--small] [--report FILE] [--git-sha SHA]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--setups") {
      o.setups = std::stoi(value());
    } else if (a == "--min-calls") {
      o.min_calls = std::stoi(value());
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--report") {
      o.report_path = value();
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds >= 0.0) || o.setups < 1 || o.min_calls < 1) {
    usage("--seconds must be >= 0, --setups and --min-calls >= 1");
  }
  return o;
}

/// Dispatch cost of simt::launch: median of empty-body launches at a fixed
/// grid on a fresh device.
double empty_launch_us() {
  mgs::topo::Cluster cluster = mgs::topo::tsubame_kfc_cluster(1);
  mgs::simt::Device& dev = cluster.device(0);
  mgs::simt::LaunchConfig cfg;
  cfg.name = "empty";
  cfg.grid = {256, 1, 1};
  cfg.block = {128, 1, 1};
  std::vector<double> us;
  for (int i = 0; i < 220; ++i) {
    const auto t0 = Clock::now();
    mgs::simt::launch(dev, cfg, [](mgs::simt::BlockCtx&) {});
    if (i >= 20) us.push_back(seconds_since(t0) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    usage(std::string("bad argument value: ") + e.what());
  }
  std::unique_ptr<perfbench::Workload> wl = perfbench::make_workload(opt);
  if (!wl) usage("unknown workload " + opt.workload);

  perfbench::RunSummary run;
  run.opt = opt;
  for (int k = 0; k < opt.setups; ++k) {
    const auto t0 = Clock::now();
    wl->setup();
    run.setup_s.push_back(seconds_since(t0));
    run.setup_probe_ms.insert(run.setup_probe_ms.end(),
                              wl->setup_probe_ms.begin(),
                              wl->setup_probe_ms.end());
    run.setup_prepare_ms.insert(run.setup_prepare_ms.end(),
                                wl->setup_prepare_ms.begin(),
                                wl->setup_prepare_ms.end());
  }
  run.setup_allocations = wl->setup_allocations;
  run.setup_reuses = wl->setup_reuses;

  // The loop ends on a round boundary once the window, the minimum call
  // count and the time budget are all met. A repeated call must model
  // exactly the seconds it modeled the first time.
  const int round = wl->round_length();
  run.window_calls = static_cast<std::size_t>(round * wl->window_rounds());
  std::map<std::string, double> modeled_by_key;
  const auto start = Clock::now();
  for (std::int64_t i = 0;; ++i) {
    const bool traced = opt.trace && (i / round) % 2 == 0;
    perfbench::CallRecord rec = wl->call(i, traced);
    if (rec.ok) {
      const auto [it, fresh] = modeled_by_key.emplace(rec.key, rec.modeled_s);
      if (!fresh && it->second != rec.modeled_s) {
        rec.ok = false;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "modeled seconds changed on a repeat: %.17g vs %.17g",
                      rec.modeled_s, it->second);
        rec.error = buf;
      }
    }
    run.records.push_back(std::move(rec));
    const auto done = static_cast<std::size_t>(i + 1);
    if (done % static_cast<std::size_t>(round) == 0 &&
        done >= run.window_calls &&
        done >= static_cast<std::size_t>(opt.min_calls) &&
        seconds_since(start) >= opt.seconds) {
      break;
    }
  }
  const double loop_s = seconds_since(start);
  run.peak_rss_mb = peak_rss_mb();
  if (opt.trace) run.empty_launch_us = empty_launch_us();
  run.stream = wl->describe_stream(
      static_cast<int>(std::min<std::size_t>(run.window_calls, 48)));

  const std::vector<perfbench::Metric> metrics =
      opt.trace ? perfbench::per_layer_metrics(run)
                : perfbench::end_to_end_metrics(run);
  std::vector<perfbench::Metric> rows = metrics;
  if (!opt.trace) {
    const auto wall = perfbench::wall_clock_metrics(run);
    rows.insert(rows.end(), wall.begin(), wall.end());
  }

  std::printf("# perfbench %s seed=%llu trace=%d calls=%zu window=%zu "
              "loop_s=%.3f\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, run.records.size(), run.window_calls, loop_s);
  std::printf("# env %s\n", perfbench::environment_json(opt).c_str());
  if (!perfbench::optimized_build()) {
    const char* warn =
        "WARNING: NON-OPTIMIZED BUILD (NDEBUG or optimization off): host "
        "timings are not comparable\n";
    std::printf("%s", warn);
    std::fprintf(stderr, "%s", warn);
  }
  std::printf("%s", perfbench::format_table(rows).c_str());
  std::size_t shown = 0;
  for (const perfbench::CallRecord& r : run.records) {
    if (!r.ok && shown++ < 5) {
      std::fprintf(stderr, "call failed: %s: %s\n", r.key.c_str(),
                   r.error.c_str());
    }
  }
  if (!opt.report_path.empty()) {
    std::ofstream out(opt.report_path);
    out << perfbench::report_json(run, rows, metrics);
    if (!out) {
      std::fprintf(stderr, "mgs_perfbench: cannot write %s\n",
                   opt.report_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", perfbench::result_line(run, metrics).c_str());
  return 0;
}
