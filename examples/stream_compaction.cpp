/// stream_compaction: the classic scan application (Blelloch; the paper's
/// introduction motivates scan as "the building block of different
/// applications"). Filter the elements of a stream that satisfy a
/// predicate, GPU-style:
///
///   1. flags[i]   = predicate(x[i])                (map kernel)
///   2. offsets    = exclusive_scan(flags)          (this library)
///   3. out[offsets[i]] = x[i] where flags[i]       (scatter kernel)
///
/// Everything runs on the simulated device through the same launch API
/// the scan kernels use, so the example doubles as a template for
/// building new primitives on the substrate.
///
///   $ ./stream_compaction [--n 4194304] [--threshold 50]

#include <cstdio>
#include <vector>

#include "mgs/core/api.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("n", "stream length (default 4 Mi)");
  cli.describe("threshold", "keep values > threshold (default 50)");
  if (cli.help_requested()) {
    cli.print_help("Stream compaction via exclusive scan.");
    return 0;
  }
  cli.reject_unknown();
  const std::int64_t n = cli.get_int("n", 1 << 22);
  const int threshold = static_cast<int>(cli.get_int("threshold", 50));

  // A one-GPU cluster + ScanContext: the scan plan comes from the
  // context's autotuner cache and the scan's auxiliary buffers from its
  // workspace pool, while the custom map/scatter kernels below use the
  // device directly.
  topo::Cluster cluster = topo::single_gpu_cluster(sim::k80_spec());
  core::ScanContext ctx(cluster);
  simt::Device& dev = cluster.device(0);

  const auto data = util::random_i32(static_cast<std::size_t>(n), 7, 0, 100);
  auto values = dev.alloc<int>(n);
  auto flags = dev.alloc<int>(n);
  auto offsets = dev.alloc<int>(n);
  std::copy(data.begin(), data.end(), values.host_span().begin());

  // --- Step 1: map kernel computing the predicate flags.
  simt::LaunchConfig map_cfg;
  map_cfg.name = "predicate_map";
  map_cfg.grid = {static_cast<int>(util::div_up(
                      static_cast<std::uint64_t>(n), 4096)),
                  1, 1};
  map_cfg.block = {128, 1, 1};
  const auto vv = values.view();
  const auto fv = flags.view();
  const auto t_map = simt::launch(dev, map_cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t base = static_cast<std::int64_t>(ctx.block_idx().x) * 4096;
    const std::int64_t len = std::min<std::int64_t>(4096, n - base);
    for (std::int64_t i = 0; i < len; i += simt::kWarpSize) {
      const int cnt = static_cast<int>(
          std::min<std::int64_t>(simt::kWarpSize, len - i));
      auto r = vv.load_warp_partial(base + i, cnt, 0, ctx.stats());
      for (int l = 0; l < cnt; ++l) r[l] = r[l] > threshold ? 1 : 0;
      ctx.count_alu(static_cast<std::uint64_t>(cnt));
      fv.store_warp_partial(base + i, cnt, r, ctx.stats());
    }
  });

  // --- Step 2: exclusive scan of the flags = output offsets, with the
  // plan memoized in the context and pooled auxiliary storage.
  const auto scan_result = core::scan_sp<int>(
      dev, flags.host_span(), offsets.host_span(), n, 1,
      ctx.plan_for(n, /*g=*/1), core::ScanKind::kExclusive, {},
      &ctx.workspace());

  // --- Step 3: scatter kernel.
  const std::int64_t kept =
      offsets.host_span()[static_cast<std::size_t>(n - 1)] +
      flags.host_span()[static_cast<std::size_t>(n - 1)];
  auto compacted = dev.alloc<int>(std::max<std::int64_t>(kept, 1));
  const auto ov = offsets.view();
  const auto cv = compacted.view();
  map_cfg.name = "scatter";
  const auto t_scatter = simt::launch(dev, map_cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t base = static_cast<std::int64_t>(ctx.block_idx().x) * 4096;
    const std::int64_t len = std::min<std::int64_t>(4096, n - base);
    for (std::int64_t i = 0; i < len; ++i) {
      if (fv.load(base + i, ctx.stats()) != 0) {
        cv.store(ov.load(base + i, ctx.stats()),
                 vv.load(base + i, ctx.stats()), ctx.stats());
      }
    }
  });

  // --- Verify against a serial compaction.
  std::vector<int> want;
  for (const int x : data) {
    if (x > threshold) want.push_back(x);
  }
  const auto got = compacted.host_span();
  bool ok = static_cast<std::int64_t>(want.size()) == kept;
  for (std::size_t i = 0; ok && i < want.size(); ++i) {
    ok = got[i] == want[i];
  }

  std::printf("Compacted %lld -> %lld elements (> %d)\n",
              static_cast<long long>(n), static_cast<long long>(kept),
              threshold);
  std::printf("Simulated time: map %s + scan %s + scatter %s\n",
              util::fmt_time_us(t_map.seconds).c_str(),
              util::fmt_time_us(scan_result.seconds).c_str(),
              util::fmt_time_us(t_scatter.seconds).c_str());
  std::printf("%s\n", ok ? "OK: matches serial compaction."
                         : "FAILED: mismatch vs serial compaction!");
  return ok ? 0 : 1;
}
