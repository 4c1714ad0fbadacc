/// bench_fig10_mppc: reproduce Figure 10 -- Scan-MP-PC throughput for
/// (W=4, V=2) and (W=8, V=4), with G = total/N problems per point.
/// Communication stays on P2P links inside each PCIe network; the largest
/// n (G < Y) reduces the number of networks, which is why the paper omits
/// n = 28 from this figure.

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Figure 10: Scan-MP-PC throughput for (W=4,V=2) and "
      "(W=8,V=4).");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);
  std::printf("Figure 10 reproduction -- Scan-MP-PC, G = 2^%d / N, GB/s\n",
              cfg.total_log2);

  util::Table table({"n", "G", "W=4,V=2", "W=8,V=4"});
  bench::BenchContext bc;
  // The paper stops at n = 27 (G = 2 problems for 2 networks).
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2 - 1; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;
    const std::int64_t g = total / n;
    std::vector<std::string> row = {std::to_string(nlog), std::to_string(g)};
    for (const auto& [y, v] : {std::pair{2, 2}, std::pair{2, 4}}) {
      // Planned per group (G/Y + 1 problems over V GPUs), which is why the
      // points run through mppc_run: the Scan-MP-PC executor keys its plan
      // on the whole batch's G, and the two keys pick different K at
      // larger totals.
      const auto plan = bc.ctx().plan_for(n, g / y + 1, core::DType::kI32,
                                          core::OpTag::kPlus, v);
      const auto r = bench::mppc_run(
          y, v, data, n, g,
          core::apply_pipeline_choice(plan, {core::PipelineMode::kSync}));
      bench::record_history(cfg, "Scan-MP-PC", n, g, y * v, "sync", r);
      // The same point on the overlap pipeline (gated, not printed).
      bench::record_history(cfg, "Scan-MP-PC", n, g, y * v, "overlap",
                            bench::mppc_run(y, v, data, n, g, plan));
      row.push_back(util::fmt_double(bench::gbps(total, r.seconds), 2));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, cfg);

  std::printf(
      "\nShape check vs the paper: both configurations avoid host-staged\n"
      "copies entirely, so neither curve shows Figure 9's W=8 collapse;\n"
      "V=4 leads at large n where per-problem compute dominates.\n");
  return 0;
}
