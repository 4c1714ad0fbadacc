/// bench_fig11_g1: reproduce Figure 11 -- single-problem (G = 1)
/// comparison against CUDPP, Thrust, ModernGPU, CUB and LightScan, plus
/// our single-GPU proposal (Scan-SP) and the best multi-GPU (W, V)
/// configuration per point.
///
/// Paper's summary for this figure: our proposal averages 1.21x over
/// CUDPP, 7.8x over Thrust, 1.31x over ModernGPU, 1.31x over LightScan
/// and 1.04x over CUB -- multi-GPU cannot shine at G=1 because Stage 2
/// underuses the GPU and communication latency eats small problems.

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Figure 11: G=1 comparison vs the five libraries.");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);
  const std::vector<std::string> libs = {"CUDPP", "Thrust", "ModernGPU",
                                         "CUB", "LightScan"};

  std::printf("Figure 11 reproduction -- G = 1, GB/s (best (W,V) per point)\n");
  util::Table table({"n", "Ours(best W)", "(W)", "Scan-SP", "CUDPP", "Thrust",
                     "ModernGPU", "CUB", "LightScan"});

  // Shared context for the sweep: per-(proposal, W) executors with a
  // common plan cache and workspace pool (the unified API).
  bench::BenchContext bc(1);

  std::vector<std::vector<double>> speedups(libs.size());
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;

    // Ours: try W in {2, 4, 8} and keep the best -- the paper's caption:
    // "each N is solved with the (W, V) > 1 parameters which achieve the
    // best performance" (Scan-SP is plotted separately).
    double best_ours = 1e30;
    int best_w = 2;
    for (int w : {2, 4, 8}) {
      if (n % w != 0) continue;
      const auto r = bc.run("Scan-MPS", {.w = w}, data, n, 1);
      bench::record_history(cfg, "Scan-MPS", n, 1, w, "auto", r);
      if (r.seconds < best_ours) {
        best_ours = r.seconds;
        best_w = w;
      }
    }
    const auto rsp = bc.run("Scan-SP", {}, data, n, 1);
    bench::record_history(cfg, "Scan-SP", n, 1, 1, "sync", rsp);
    const double sp = rsp.seconds;

    std::vector<std::string> row = {
        std::to_string(nlog), util::fmt_double(bench::gbps(n, best_ours), 2),
        std::to_string(best_w), util::fmt_double(bench::gbps(n, sp), 2)};
    for (std::size_t li = 0; li < libs.size(); ++li) {
      const auto rl = bench::baseline_run(libs[li], data, n, 1);
      bench::record_history(cfg, libs[li], n, 1, 1, "sync", rl);
      const double s = rl.seconds;
      row.push_back(util::fmt_double(bench::gbps(n, s), 2));
      speedups[li].push_back(s / best_ours);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, cfg);

  std::printf("\nAverage speedup of our best proposal (paper in brackets):\n");
  const double paper[] = {1.21, 7.8, 1.31, 1.04, 1.31};
  const std::size_t order[] = {0, 1, 2, 3, 4};
  for (std::size_t li : order) {
    std::printf("  vs %-10s %6.2fx   [paper: %.2fx]\n", libs[li].c_str(),
                util::mean(speedups[li]), paper[li]);
  }
  return 0;
}
