/// bench_scaling: strong- and weak-scaling study of the proposals across
/// GPU counts -- the scalability claim behind Premise 4 ("Scan primitive
/// scales very well when the number of GPUs rises") quantified:
///  * strong scaling: fixed problem (N = total, G = 1), W = 1..8;
///  * weak scaling: fixed per-GPU data (N = W * total/8, G = 8), W = 1..8;
///  * the gather-strategy variants at W = 4 (explicit copies vs direct
///    peer writes).

#include "common.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  const auto cfg = bench::parse_bench_config(
      argc, argv, "GPU-count scaling study (strong + weak).");

  const std::int64_t total = std::int64_t{1} << cfg.total_log2;
  const auto data = util::random_i32(static_cast<std::size_t>(total),
                                     cfg.seed);

  // Every key names its study. The Scan-MPS points run the executors'
  // plans on the synchronous path; the Scan-SP points keep the Section 3.2
  // K search, which probes K only and so can differ from the Autotuner
  // behind the Scan-SP executor.
  bench::BenchContext bc;
  const auto spec = bc.ctx().cluster().config().gpu;
  const auto mps = [&](const char* name, int w, std::int64_t n,
                       std::int64_t g) {
    return bc.run(name, {.w = w, .pipeline = core::PipelineMode::kSync}, data,
                  n, g);
  };

  std::printf("Strong scaling: N = 2^%d, G = 1\n", cfg.total_log2);
  util::Table strong({"W", "GB/s", "speedup vs W=1", "efficiency"});
  double t1 = 0.0;
  for (int w : {1, 2, 4, 8}) {
    const auto r = w == 1 ? bench::sp_run(data, total, 1,
                                          core::sp_k_search(spec, total, 1))
                          : mps("Scan-MPS", w, total, 1);
    bench::record_history(cfg, w == 1 ? "Scan-SP(strong)" : "Scan-MPS(strong)",
                          total, 1, w, "sync", r);
    const double s = r.seconds;
    if (w == 1) t1 = s;
    strong.add_row({std::to_string(w),
                    util::fmt_double(bench::gbps(total, s), 2),
                    util::fmt_speedup(t1 / s),
                    util::fmt_double(t1 / s / w * 100, 0) + "%"});
  }
  bench::print_table(strong, cfg);

  std::printf("\nWeak scaling: N/GPU = 2^%d, G = 8\n", cfg.total_log2 - 6);
  util::Table weak({"W", "N", "GB/s", "time vs W=1"});
  const std::int64_t per_gpu = total / 64;  // so W=8 x G=8 fits the data
  double w1 = 0.0;
  for (int w : {1, 2, 4, 8}) {
    const std::int64_t n = per_gpu * w;
    const auto r = w == 1 ? bench::sp_run(data, n, 8,
                                          core::sp_k_search(spec, n, 8))
                          : mps("Scan-MPS", w, n, 8);
    bench::record_history(cfg, w == 1 ? "Scan-SP(weak)" : "Scan-MPS(weak)", n,
                          8, w, "sync", r);
    const double s = r.seconds;
    if (w == 1) w1 = s;
    weak.add_row({std::to_string(w), std::to_string(n),
                  util::fmt_double(bench::gbps(n * 8, s), 2),
                  util::fmt_double(s / w1, 2)});
  }
  bench::print_table(weak, cfg);

  std::printf("\nGather strategy at W = 4, G = 64:\n");
  {
    const std::int64_t n = total / 64;
    const std::int64_t g = 64;
    const auto regular = mps("Scan-MPS", 4, n, g);
    const auto direct = mps("Scan-MPS-direct", 4, n, g);
    bench::record_history(cfg, "Scan-MPS(gather)", n, g, 4, "sync", regular);
    bench::record_history(cfg, "Scan-MPS-direct(gather)", n, g, 4, "sync",
                          direct);
    std::printf("  explicit 2-D gather: %s   direct P2P peer writes: %s "
                "(%.2fx)\n",
                util::fmt_time_us(regular.seconds).c_str(),
                util::fmt_time_us(direct.seconds).c_str(),
                regular.seconds / direct.seconds);
  }
  return 0;
}
