/// bench_mn_combos: reproduce the Section 5.2 (M, W) combination study --
/// 8 GPUs total arranged as M=2 x W=4, M=4 x W=2 and M=8 x W=1.
///
/// Paper: M=2,W=4 is best; M=8,W=1 worst (MPI overhead per node); the
/// gap narrows with data size -- 1.48x at n=13 down to 1.03x at n=28,
/// because MPI overhead is near-constant while compute grows with N.

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Section 5.2's (M, W) combination study with 8 GPUs.");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);

  std::printf(
      "Section 5.2 reproduction -- (M, W) combinations of 8 GPUs, "
      "G = 2^%d / N, GB/s\n",
      cfg.total_log2);
  util::Table table(
      {"n", "G", "M=2,W=4", "M=4,W=2", "M=8,W=1", "best/worst"});

  const auto kfc = topo::tsubame_kfc_cluster(1).config();
  double first_gap = 0.0, last_gap = 0.0;
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;
    const std::int64_t g = total / n;
    std::vector<double> secs;
    for (const auto& [m, w] : {std::pair{2, 4}, std::pair{4, 2},
                              std::pair{8, 1}}) {
      const auto plan = core::apply_pipeline_choice(
          core::multinode_k_search(kfc, m, w, n, g),
          {core::PipelineMode::kSync});
      const auto r = bench::multinode_run(m, w, data, n, g, plan);
      // All three shapes use 8 GPUs, so the (M, W) split names the key.
      bench::record_history(cfg,
                            "Scan-MPS-multinode(M=" + std::to_string(m) +
                                ",W=" + std::to_string(w) + ")",
                            n, g, m * w, "sync", r);
      secs.push_back(r.seconds);
    }
    const double gap = util::max_of(secs) / util::min_of(secs);
    table.add_row({std::to_string(nlog), std::to_string(g),
                   util::fmt_double(bench::gbps(total, secs[0]), 2),
                   util::fmt_double(bench::gbps(total, secs[1]), 2),
                   util::fmt_double(bench::gbps(total, secs[2]), 2),
                   util::fmt_speedup(gap)});
    if (nlog == cfg.min_n_log2) first_gap = gap;
    if (nlog == cfg.total_log2) last_gap = gap;
  }
  bench::print_table(table, cfg);

  std::printf(
      "\nShape check (paper, at total=2^28: 1.48x at n=13 -> 1.03x at "
      "n=28):\n  best/worst gap here: %.2fx at n=%d -> %.2fx at n=%d\n",
      first_gap, cfg.min_n_log2, last_gap, cfg.total_log2);
  return 0;
}
