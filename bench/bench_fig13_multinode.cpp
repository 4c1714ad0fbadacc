/// bench_fig13_multinode: reproduce Figure 13 -- the multi-node
/// Scan-MPS proposal (M=2 nodes x W=4 GPUs, MPI gather/scatter of the
/// auxiliary array) versus the five single-GPU libraries, with
/// G = total/N problems per point.
///
/// Paper's summary: 8.51x over CUDPP, 43.82x over Thrust, 24.85x over
/// ModernGPU, 7.7x over CUB and 41.2x over LightScan on average; larger
/// at small n for the no-batch libraries (50x/88x/10x/109x at n=14),
/// smaller at n=28 (8.9x/3.1x/3.1x/3.2x).

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Figure 13: multi-node Scan-MPS (M=2, W=4) vs the five "
      "libraries.");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);
  const std::vector<std::string> libs = {"CUDPP", "Thrust", "ModernGPU",
                                         "CUB", "LightScan"};

  std::printf(
      "Figure 13 reproduction -- multi-node Scan-MPS (M=2, W=4), "
      "G = 2^%d / N, GB/s\n",
      cfg.total_log2);
  util::Table table({"n", "G", "Scan-MPS(MN)", "CUDPP", "Thrust",
                     "ModernGPU", "CUB", "LightScan"});

  const auto kfc = topo::tsubame_kfc_cluster(1).config();
  std::vector<std::vector<double>> speedups(libs.size());
  std::vector<int> nlogs;
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;
    const std::int64_t g = total / n;
    nlogs.push_back(nlog);

    const auto plan = core::multinode_k_search(kfc, 2, 4, n, g);
    const auto rours = bench::multinode_run(
        2, 4, data, n, g,
        core::apply_pipeline_choice(plan, {core::PipelineMode::kSync}));
    bench::record_history(cfg, "Scan-MPS-multinode", n, g, 8, "sync", rours);
    // The same point on the Isend pipeline (gated, not printed).
    bench::record_history(cfg, "Scan-MPS-multinode", n, g, 8, "overlap",
                          bench::multinode_run(2, 4, data, n, g, plan));
    const double ours = rours.seconds;

    std::vector<std::string> row = {
        std::to_string(nlog), std::to_string(g),
        util::fmt_double(bench::gbps(total, ours), 2)};
    for (std::size_t li = 0; li < libs.size(); ++li) {
      const double s = bench::baseline_run(libs[li], data, n, g).seconds;
      row.push_back(util::fmt_double(bench::gbps(total, s), 2));
      speedups[li].push_back(s / ours);
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, cfg);

  std::printf("\nAverage speedup of multi-node Scan-MPS (paper in brackets):\n");
  const double paper_avg[] = {8.51, 43.82, 24.85, 7.7, 41.2};
  for (std::size_t li = 0; li < libs.size(); ++li) {
    std::printf("  vs %-10s %7.2fx   [paper: %.2fx]\n", libs[li].c_str(),
                util::mean(speedups[li]), paper_avg[li]);
  }
  std::printf(
      "\nShape check (paper): no-batch libraries lose hardest at small n "
      "(Thrust %0.1fx at n=%d here)\nand the gap narrows at large n "
      "(Thrust %0.1fx at n=%d here).\n",
      speedups[1].front(), nlogs.front(), speedups[1].back(), nlogs.back());
  return 0;
}
