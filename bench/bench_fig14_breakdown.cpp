/// bench_fig14_breakdown: reproduce Figure 14 -- the per-phase time
/// breakdown of the multi-node proposal (M=2 nodes, W=4 GPUs) across
/// problem sizes, G = total/N.
///
/// Expected shape (paper): the MPI overhead stays almost constant across
/// problem sizes; MPI_Gather/MPI_Scatter shrink as G decreases (fewer
/// Stage-2 elements); compute stages grow with per-problem size.
///
/// Besides the table, the largest-n point is re-run under a TraceSession
/// and exported as bench_results/bench_fig14_breakdown.json -- the JSON
/// run-report whose critical-path section is the programmatic Figure 14
/// (render with `mgs_trace --in bench_results/bench_fig14_breakdown.json`).

#include <filesystem>

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv,
      "Reproduces Figure 14: time breakdown for M=2, W=4 across problem "
      "sizes.");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);

  std::printf(
      "Figure 14 reproduction -- breakdown (us) for M=2, W=4, "
      "G = 2^%d / N\n",
      cfg.total_log2);
  util::Table table({"n", "G", "Stage1", "MPI_Gather", "Stage2",
                     "MPI_Scatter", "Stage3", "MPI_Barrier", "total"});

  double gather_small = 0.0, gather_large = 0.0;
  for (int nlog = cfg.min_n_log2; nlog <= cfg.total_log2; ++nlog) {
    const std::int64_t n = std::int64_t{1} << nlog;
    const std::int64_t g = total / n;
    const auto plan = bench::tuned_plan_multinode(2, 4, data, n, g);
    const auto r = bench::multinode_run(2, 4, data, n, g, plan);

    auto us = [&](const char* phase) {
      return util::fmt_double(r.breakdown.get(phase) * 1e6, 1);
    };
    table.add_row({std::to_string(nlog), std::to_string(g), us("Stage1"),
                   us("MPI_Gather"), us("Stage2"), us("MPI_Scatter"),
                   us("Stage3"), us("MPI_Barrier"),
                   util::fmt_double(r.seconds * 1e6, 1)});
    if (nlog == cfg.min_n_log2) gather_small = r.breakdown.get("MPI_Gather");
    if (nlog == cfg.total_log2) gather_large = r.breakdown.get("MPI_Gather");
    bench::record_history(cfg, "Scan-MPS-multinode", n, g, 8, "sync", r);
  }
  bench::print_table(table, cfg);

  std::printf(
      "\nShape check (paper): MPI_Gather/MPI_Scatter time shrinks as G "
      "decreases\n(fewer Stage-2 elements): gather %0.1f us at the smallest "
      "n vs %0.1f us at the largest.\n",
      gather_small * 1e6, gather_large * 1e6);

  // Representative traced run (largest n, one problem per GPU pair) ->
  // JSON run-report with span-level critical-path attribution.
  {
    const std::int64_t n = total;
    const std::int64_t g = 1;
    const auto plan = bench::tuned_plan_multinode(2, 4, data, n, g);
    obs::TraceSession ts;
    const auto r = bench::multinode_run(2, 4, data, n, g, plan);
    std::filesystem::create_directories("bench_results");
    core::write_run_report_file(
        "bench_results/bench_fig14_breakdown.json",
        core::make_run_info("Scan-MPS-multinode", n, 8, r), ts);
    std::printf("-> bench_results/bench_fig14_breakdown.json "
                "(mgs_trace --in ... renders the attribution)\n");
    if (cfg.trace_guard) {
      cfg.trace_guard->set_run_info(
          core::make_run_info("Scan-MPS-multinode", n, 8, r));
    }
  }
  return 0;
}
