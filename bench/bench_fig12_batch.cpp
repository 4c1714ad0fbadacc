/// bench_fig12_batch: reproduce Figure 12 -- the batch experiment.
/// G = total/N problems solved simultaneously: our best multi-GPU
/// proposal (Scan-MP-PC, W=8 as two V=4 P2P groups) and Scan-SP versus
/// the five libraries. Only CUDPP has native batch support (multiScan);
/// every other library is invoked G times, exactly as the paper does.
///
/// Paper's summary: 9.48x over CUDPP, 49.81x over Thrust, 33.77x over
/// ModernGPU, 8.92x over CUB, 58.44x over LightScan on average; 245x /
/// 71x / 14x / 550x extremes at n=13 and 6.6x / 18.5x / 5.6x / 5.4x at
/// n=25; performance drops at n = total exponent (G=1, one network).

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Figure 12: batch (G = total/N) comparison vs the five "
      "libraries.");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);
  const std::vector<std::string> libs = {"CUDPP", "Thrust", "ModernGPU",
                                         "CUB", "LightScan"};

  std::printf(
      "Figure 12 reproduction -- G = 2^%d / N, GB/s (log10 scale in paper)\n",
      cfg.total_log2);
  util::Table table({"n", "G", "Scan-MP-PC", "Scan-SP", "CUDPP", "Thrust",
                     "ModernGPU", "CUB", "LightScan"});

  // Shared context for the sweep (unified API): the MP-PC and Scan-SP
  // executors keep their plans and pooled workspaces across points.
  bench::BenchContext bc(1);

  std::vector<std::vector<double>> speedups(libs.size());
  std::vector<int> nlogs;
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;
    const std::int64_t g = total / n;
    nlogs.push_back(nlog);

    // Our best proposal: MP-PC with V=4 over both networks while G >= 2,
    // falling back to one network at G = 1 (the paper's n=28 dip).
    const int y = g >= 2 ? 2 : 1;
    const auto rours = bc.run("Scan-MP-PC", {.y = y, .v = 4}, data, n, g);
    bench::record_history(cfg, "Scan-MP-PC", n, g, y * 4, "auto", rours);
    const double ours = rours.seconds;
    const auto rsp = bc.run("Scan-SP", {}, data, n, g);
    bench::record_history(cfg, "Scan-SP", n, g, 1, "sync", rsp);
    const double sp = rsp.seconds;

    std::vector<std::string> row = {
        std::to_string(nlog), std::to_string(g),
        util::fmt_double(bench::gbps(total, ours), 2),
        util::fmt_double(bench::gbps(total, sp), 2)};
    for (std::size_t li = 0; li < libs.size(); ++li) {
      const auto rl = bench::baseline_run(libs[li], data, n, g);
      bench::record_history(cfg, libs[li], n, g, 1, "sync", rl);
      const double s = rl.seconds;
      row.push_back(util::fmt_double(bench::gbps(total, s), 2));
      speedups[li].push_back(s / ours);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, cfg);

  std::printf("\nAverage speedup of Scan-MP-PC (paper in brackets):\n");
  const double paper_avg[] = {9.48, 49.81, 33.77, 8.92, 58.44};
  for (std::size_t li = 0; li < libs.size(); ++li) {
    std::printf("  vs %-10s %7.2fx   [paper: %.2fx]\n", libs[li].c_str(),
                util::mean(speedups[li]), paper_avg[li]);
  }
  std::printf("\nExtremes (paper, at total=2^28: n=13 -> 245x MGPU, 71x "
              "Thrust, 14x CUB, 550x LightScan;\n"
              " n=25 -> 6.6x / 18.5x / 5.6x / 5.4x):\n");
  std::printf("  smallest n=%d: %7.2fx MGPU, %7.2fx Thrust, %6.2fx CUB, "
              "%7.2fx LightScan\n",
              nlogs.front(), speedups[2].front(), speedups[1].front(),
              speedups[3].front(), speedups[4].front());
  std::printf("  largest  n=%d: %7.2fx MGPU, %7.2fx Thrust, %6.2fx CUB, "
              "%7.2fx LightScan\n",
              nlogs.back(), speedups[2].back(), speedups[1].back(),
              speedups[3].back(), speedups[4].back());
  return 0;
}
