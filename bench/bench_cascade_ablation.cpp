/// bench_cascade_ablation: design-choice ablations called out in
/// DESIGN.md --
///  (a) cascade on/off: K > 1 (few blocks, carried totals, Figure 5)
///      versus K = 1 (one block per tile, more aux traffic and launches);
///  (b) int4 vectorized loads vs scalar loads (coalescing premium) --
///      measured through the memory-transaction counters;
///  (c) the segmented-scan operator extension's overhead vs a plain scan
///      (the paper's argument for why Thrust's flag-array approach and
///      the CUB operator extension lose performance).

#include "common.hpp"
#include "mgs/core/segmented.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv, "Cascade / vectorization / segmented-scan ablations.");

  const std::int64_t n = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(n), cfg.seed);
  const auto spec = sim::k80_spec();

  // (a) cascade on/off.
  std::printf("(a) Cascade (Figure 5) ablation, n=%d:\n", cfg.total_log2);
  util::Table ctable({"config", "K", "blocks", "aux elems", "GB/s"});
  for (const auto& [label, k] :
       {std::pair{"no cascade", 1}, std::pair{"cascade K=8", 8},
        std::pair{"cascade K=64", 64}}) {
    auto plan = core::derive_spl(spec, 4).plan;
    plan.s13.k = k;
    const auto lay = core::make_layout(n, 1, plan.s13);
    const auto r = bench::sp_run(data, n, 1, plan);
    ctable.add_row({label, std::to_string(k), std::to_string(lay.bx),
                    std::to_string(lay.aux_elems()),
                    util::fmt_double(bench::gbps(n, r.seconds), 2)});
  }
  bench::print_table(ctable, cfg);

  // (b) vectorized vs scalar accesses: the stage-2 kernels provide both
  // access patterns (contiguous warp loads vs the rank-strided mapping).
  std::printf("\n(b) Coalescing premium (Stage-2 row scan, contiguous vs "
              "rank-strided):\n");
  {
    const std::int64_t rows = 512, row_len = 1024;
    auto plan = core::derive_spl(spec, 4).plan;
    simt::Device d1(0, spec);
    auto aux1 = d1.alloc<int>(rows * row_len);
    const auto t_contig = core::launch_intermediate_scan_slice(
        d1, aux1, row_len, 0, rows, 0, row_len, nullptr, plan.s2,
        core::Plus<int>{});
    simt::Device d2(0, spec);
    auto aux2 = d2.alloc<int>(rows * row_len);
    const auto t_strided = core::launch_intermediate_scan_ranked_slice(
        d2, aux2, row_len / 8, 8, rows, 0, rows, 0, row_len, nullptr, plan.s2,
        core::Plus<int>{});
    std::printf(
        "  contiguous: %s (coalescing %.2f)   rank-strided: %s (coalescing "
        "%.2f)   slowdown: %.2fx\n",
        util::fmt_time_us(t_contig.seconds).c_str(), t_contig.coalescing,
        util::fmt_time_us(t_strided.seconds).c_str(), t_strided.coalescing,
        t_strided.seconds / t_contig.seconds);
  }

  // (d, printed below c) gather strategy ablation: explicit 2-D gather
  // copies vs. direct UVA peer writes pipelined behind Stage 1 (the
  // communication/computation overlap Section 2 describes).
  const auto print_overlap = [&] {
    // Many small per-problem aux rows: the regime where gather strategy
    // matters (cf. Figure 9's G-dependence).
    const std::int64_t nn = std::min<std::int64_t>(n, 1 << 17);
    const std::int64_t g = 1024;
    const std::vector<int> gpus = {0, 1, 2, 3};
    auto plan = core::derive_spl(spec, 4).plan;
    plan.s13.k = 2;
    const auto batch_data =
        util::random_i32(static_cast<std::size_t>(nn * g), cfg.seed + 1);
    std::vector<int> out(batch_data.size());
    auto c1 = topo::tsubame_kfc_cluster(1);
    const auto regular = core::scan_mps<int>(c1, gpus, batch_data, out, nn, g,
                                             plan, core::ScanKind::kInclusive);
    auto c2 = topo::tsubame_kfc_cluster(1);
    const auto direct = core::scan_mps<int>(
        c2, gpus, batch_data, out, nn, g, plan, core::ScanKind::kInclusive, {},
        core::MpsGather::kPeerWrites);
    std::printf(
        "\n(d) Gather strategy (W=4, G=%lld, n=%lld): explicit 2-D copies "
        "%s vs direct P2P peer writes %s (%.2fx)\n",
        static_cast<long long>(g), static_cast<long long>(nn),
        util::fmt_time_us(regular.seconds).c_str(),
        util::fmt_time_us(direct.seconds).c_str(),
        regular.seconds / direct.seconds);
  };

  // (c) segmented-scan overhead.
  std::printf("\n(c) Segmented-scan operator extension vs plain scan:\n");
  {
    auto plan = core::derive_spl(spec, 4).plan;
    plan.s13.k = 4;
    simt::Device dev(0, spec);
    auto in = dev.alloc<int>(n);
    auto fl = dev.alloc<int>(n);
    auto out = dev.alloc<int>(n);
    std::copy(data.begin(), data.end(), in.host_span().begin());
    for (std::int64_t i = 0; i < n; i += 1000) {
      fl.host_span()[static_cast<std::size_t>(i)] = 1;
    }
    const auto seg = core::segmented_scan_sp<int>(dev, in, fl, out, n, plan);
    const auto plain = core::scan_sp<int>(dev, in, out, n, 1, plan,
                                          core::ScanKind::kInclusive);
    std::printf(
        "  plain: %s   segmented: %s   overhead: %.2fx (pack/unpack + 2x "
        "element size)\n",
        util::fmt_time_us(plain.seconds).c_str(),
        util::fmt_time_us(seg.seconds).c_str(), seg.seconds / plain.seconds);
  }
  // The same extension through the executor stack: one batch of 16
  // sequences per SegmentedScan, on Scan-SP and on Scan-MPS W=4 with each
  // pipeline. Recorded for the golden table only; nothing is printed.
  if (!cfg.history_file.empty()) {
    const std::int64_t sn = 1 << 17;
    const std::int64_t sg = 16;
    const auto values =
        util::random_i32(static_cast<std::size_t>(sn * sg), cfg.seed + 2);
    std::vector<int> flags(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      flags[i] = (values[i] & 1023) == 0 ? 1 : 0;  // ~1k-element segments
    }
    std::vector<int> out(values.size());
    bench::BenchContext bc(1);
    const auto record = [&](const std::string& executor, int devices,
                            const core::ExecutorParams& p,
                            const std::string& pipeline) {
      core::SegmentedScan<int> seg(bc.ctx(), executor, p);
      seg.prepare(sn, sg);
      const auto r = seg.run(values, flags, out);
      bench::record_history(cfg, executor + "(segmented)", sn, sg, devices,
                            pipeline, r);
    };
    record("Scan-SP", 1, {}, "sync");
    record("Scan-MPS", 4, {.w = 4, .pipeline = core::PipelineMode::kSync},
           "sync");
    record("Scan-MPS", 4, {.w = 4}, "overlap");
  }

  print_overlap();
  return 0;
}
