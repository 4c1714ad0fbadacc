/// bench_tuning_ablation: ablations for the tuning premises --
///  (a) the (s, p, l) derivation per architecture (Premises 1-2);
///  (b) a P sweep showing Premise 2's trade-off (more work per thread
///      helps until registers run out and occupancy collapses);
///  (c) a K sweep showing Premise 3's trade-off (few chunks = less aux
///      traffic, too few = Stage-2/grid underutilization) and where the
///      Equation-1 bound lands;
///  (d) block-shape sweep around the Table-3 bold row (Premise 1).

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv, "Tuning-premise ablations (P, K, block shape).");

  const std::int64_t n = std::int64_t{1} << cfg.total_log2;
  const std::int64_t g = 1;
  const auto data =
      util::random_i32(static_cast<std::size_t>(n * g), cfg.seed);
  const auto spec = sim::k80_spec();

  // (a) Premise 1+2 derivation per architecture.
  std::printf("(a) Premise 1+2 derivation:\n");
  for (const char* name : {"k80", "maxwell", "pascal"}) {
    const auto choice = core::derive_spl(sim::spec_by_name(name), 4);
    std::printf("  %-8s -> (s=%d, p=%d, l=%d), %d regs/thread\n", name,
                choice.plan.s13.s_log2(), choice.plan.s13.p_log2(),
                choice.plan.s13.l_log2(),
                choice.plan.s13.regs_per_thread());
  }

  // (b) P sweep at the derived block shape.
  std::printf("\n(b) Premise 2 -- P sweep (n=%d, G=%lld):\n", cfg.total_log2,
              static_cast<long long>(g));
  util::Table ptable({"P", "regs/thread", "blocks/SM", "GB/s"});
  for (int p : {4, 8, 16, 32}) {
    auto plan = core::derive_spl(spec, 4).plan;
    plan.s13.p = p;
    plan.s13.k = 4;
    if (plan.s13.regs_per_thread() > spec.max_regs_per_thread) break;
    const auto occ = sim::occupancy(spec, plan.s13.threads(),
                                    plan.s13.regs_per_thread(),
                                    plan.s13.smem_bytes(4));
    const auto r = bench::sp_run(data, n, g, plan);
    ptable.add_row({std::to_string(p),
                    std::to_string(plan.s13.regs_per_thread()),
                    std::to_string(occ.blocks_per_sm),
                    util::fmt_double(bench::gbps(n * g, r.seconds), 2)});
  }
  bench::print_table(ptable, cfg);

  // (c) K sweep: U-shaped trade-off + the Equation 1 bound.
  auto base = core::derive_spl(spec, 4).plan;
  const auto kmax = core::k1_max_eq1(n, g, base, spec);
  std::printf("\n(c) Premise 3 -- K sweep (Eq.1 bound: K <= %lld):\n",
              static_cast<long long>(kmax));
  util::Table ktable({"K", "chunks/problem", "aux elems", "GB/s"});
  for (std::int64_t k = 1; k <= 256; k *= 4) {
    auto plan = base;
    plan.s13.k = static_cast<int>(k);
    const auto lay = core::make_layout(n, g, plan.s13);
    if (lay.bx < 1) break;
    const auto r = bench::sp_run(data, n, g, plan);
    ktable.add_row({std::to_string(k), std::to_string(lay.bx),
                    std::to_string(lay.aux_elems()),
                    util::fmt_double(bench::gbps(n * g, r.seconds), 2)});
  }
  bench::print_table(ktable, cfg);

  // (e, printed after d) Automatic search over the full (p, lx, K) space
  // -- the paper's future work, implemented against the simulator.
  const auto print_autotune = [&] {
    mgs::core::Autotuner tuner(spec);
    const std::int64_t n_small = std::min<std::int64_t>(n, 1 << 20);
    const auto& best = tuner.tune(n_small, 4);
    const auto& report = tuner.last_report();
    std::printf("\n(e) Automatic (s,p,l,K) search (n=%lld, G=4): best P=%d, "
                "Lx=%d, K=%d (%s); %zu candidates evaluated\n",
                static_cast<long long>(n_small), best.plan.s13.p,
                best.plan.s13.lx, best.plan.s13.k,
                mgs::util::fmt_time_us(best.seconds).c_str(),
                report.rows.size());
    util::Table atable({"P", "Lx", "K", "time", "best"});
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
      const auto& s13 = report.rows[i].plan.s13;
      atable.add_row({std::to_string(s13.p), std::to_string(s13.lx),
                      std::to_string(s13.k),
                      mgs::util::fmt_time_us(report.rows[i].seconds),
                      i == report.best ? "*" : ""});
    }
    bench::print_table(atable, cfg);
  };

  // (d) Block-shape sweep around the Table-3 bold row.
  std::printf("\n(d) Premise 1 -- block-shape sweep (Lx, fixed P=8, K=4):\n");
  util::Table ltable({"Lx", "warps/block", "blocks/SM", "occupancy", "GB/s"});
  for (int lx : {32, 64, 128, 256, 512}) {
    auto plan = base;
    plan.s13.lx = lx;
    plan.s13.k = 4;
    const auto occ = sim::occupancy(spec, lx, plan.s13.regs_per_thread(),
                                    plan.s13.smem_bytes(4));
    const auto r = bench::sp_run(data, n, g, plan);
    ltable.add_row({std::to_string(lx), std::to_string(lx / 32),
                    std::to_string(occ.blocks_per_sm),
                    util::fmt_double(occ.warp_occupancy * 100, 0) + "%",
                    util::fmt_double(bench::gbps(n * g, r.seconds), 2)});
  }
  bench::print_table(ltable, cfg);

  print_autotune();
  return 0;
}
