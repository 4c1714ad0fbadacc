#pragma once
/// \file cudpp.hpp
/// CUDPP 2.2 scan model: the classic work-efficient Blelloch scan --
/// per-block shared-memory up-sweep/down-sweep, recursive scan of the
/// block sums, then a uniform-add pass. The uniform add re-reads and
/// re-writes the output, so the algorithm moves ~4N elements of DRAM
/// traffic versus CUB's ~2N; the whole tile also lives in shared memory,
/// which the occupancy calculator sees. CUDPP is the one 2018 library
/// with native batch support (multiScan), which this model implements
/// with 2-D grids (one plan, one invocation for all G problems).

#include <vector>

#include "mgs/baselines/common.hpp"
#include "mgs/core/op.hpp"

namespace mgs::baselines {

inline BaselineTraits cudpp_traits() {
  // Plan-handle lookup and kernel-selection logic per invocation.
  return {"CUDPP", 18.0, /*loop_extra_us=*/0.0, /*native_batch=*/true};
}

namespace detail {

inline constexpr int kCudppThreads = 256;
inline constexpr int kCudppElemsPerThread = 8;
inline constexpr std::int64_t kCudppTile =
    kCudppThreads * kCudppElemsPerThread;  // 2048

/// One recursion level: scan `g` rows of `n` elements (row p starts at
/// offset + p*row_stride), reading from `src` and writing to `data`
/// (src == data for the in-place recursion on the block sums), exclusive
/// within each row; per-block totals go to `sums` ([g][blocks] row-major)
/// unless blocks == 1.
template <typename T, typename Op>
void cudpp_level(simt::Device& dev, const simt::DeviceBuffer<T>& src,
                 simt::DeviceBuffer<T>& data, std::int64_t offset,
                 std::int64_t row_stride, std::int64_t n, std::int64_t g,
                 core::ScanKind kind, Op op, core::RunResult& result) {
  const std::int64_t blocks = util::div_up(
      static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(kCudppTile));

  simt::LaunchConfig cfg;
  cfg.name = "cudpp_scan_tiles";
  cfg.grid = {static_cast<int>(blocks), static_cast<int>(g), 1};
  cfg.block = {kCudppThreads, 1, 1};
  cfg.regs_per_thread = 32;
  cfg.smem_per_block = kCudppTile * static_cast<std::int64_t>(sizeof(T));

  simt::DeviceBuffer<T> sums;
  if (blocks > 1) sums = dev.alloc<T>(blocks * g);

  const auto srcv = src.view();
  const auto dv = data.view();
  const auto sv = blocks > 1 ? sums.view() : simt::GlobalView<T>{};
  auto t = simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t b = ctx.block_idx().x;
    const std::int64_t p = ctx.block_idx().y;
    const std::int64_t base = offset + p * row_stride + b * kCudppTile;
    const std::int64_t len = std::min<std::int64_t>(kCudppTile, n - b * kCudppTile);
    // Load the tile into shared memory (coalesced warp loads).
    auto smem = ctx.shared<T>(kCudppTile);
    for (std::int64_t i = 0; i < len; i += simt::kWarpSize) {
      const int cnt =
          static_cast<int>(std::min<std::int64_t>(simt::kWarpSize, len - i));
      const auto r = srcv.load_warp_partial(base + i, cnt, Op::identity(),
                                            ctx.stats());
      for (int l = 0; l < cnt; ++l) smem[static_cast<std::size_t>(i + l)] = r[l];
    }
    ctx.sync();
    // Blelloch up-sweep + down-sweep in shared memory: ~2 ops/element.
    T total = Op::identity();
    for (std::int64_t i = 0; i < len; ++i) total = op(total, smem[static_cast<std::size_t>(i)]);
    T acc = Op::identity();
    for (std::int64_t i = 0; i < len; ++i) {
      const T x = smem[static_cast<std::size_t>(i)];
      smem[static_cast<std::size_t>(i)] = acc;  // exclusive within tile
      acc = op(acc, x);
    }
    ctx.count_alu(2 * static_cast<std::uint64_t>(len));
    ctx.sync();
    // Store the scanned tile and the block total.
    for (std::int64_t i = 0; i < len; i += simt::kWarpSize) {
      const int cnt =
          static_cast<int>(std::min<std::int64_t>(simt::kWarpSize, len - i));
      simt::WarpReg<T> r{};
      for (int l = 0; l < cnt; ++l) r[l] = smem[static_cast<std::size_t>(i + l)];
      dv.store_warp_partial(base + i, cnt, r, ctx.stats());
    }
    if (blocks > 1) sv.store(p * blocks + b, total, ctx.stats());
  });
  result.breakdown.add("cudpp_scan_tiles", t.seconds);

  if (blocks == 1) {
    (void)kind;
    return;
  }

  // Recursively exclusive-scan the block sums (per problem row).
  cudpp_level(dev, sums, sums, 0, blocks, blocks, g,
              core::ScanKind::kExclusive, op, result);

  // Uniform add: re-read the output, fold in the scanned block sum.
  simt::LaunchConfig add_cfg = cfg;
  add_cfg.name = "cudpp_uniform_add";
  add_cfg.smem_per_block = static_cast<std::int64_t>(sizeof(T));
  const auto sums_v = sums.view();
  auto t2 = simt::launch(dev, add_cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t b = ctx.block_idx().x;
    const std::int64_t p = ctx.block_idx().y;
    const std::int64_t base = offset + p * row_stride + b * kCudppTile;
    const std::int64_t len = std::min<std::int64_t>(kCudppTile, n - b * kCudppTile);
    const T add = sums_v.load(p * blocks + b, ctx.stats());
    for (std::int64_t i = 0; i < len; i += simt::kWarpSize) {
      const int cnt =
          static_cast<int>(std::min<std::int64_t>(simt::kWarpSize, len - i));
      auto r = dv.load_warp_partial(base + i, cnt, Op::identity(), ctx.stats());
      for (int l = 0; l < cnt; ++l) r[l] = op(add, r[l]);
      ctx.count_alu(static_cast<std::uint64_t>(cnt));
      dv.store_warp_partial(base + i, cnt, r, ctx.stats());
    }
  });
  result.breakdown.add("cudpp_uniform_add", t2.seconds);
}

}  // namespace detail

/// CUDPP multiScan: G problems of N contiguous elements in one invocation.
/// CUDPP's native operation is the exclusive scan; the inclusive variant
/// pays one extra pass folding the input back in (as cudppScan does with
/// the CUDPP_OPTION_INCLUSIVE flag handled in the final pass -- modeled
/// here as an extra elementwise pass).
template <typename T, typename Op = core::Plus<T>>
core::RunResult cudpp_multiscan(simt::Device& dev,
                                const simt::DeviceBuffer<T>& in,
                                simt::DeviceBuffer<T>& out, std::int64_t n,
                                std::int64_t g, core::ScanKind kind,
                                Op op = {}) {
  MGS_REQUIRE(n > 0 && g > 0, "cudpp_multiscan: bad shape");
  MGS_REQUIRE(in.size() >= n * g && out.size() >= n * g,
              "cudpp_multiscan: buffers too small");
  MGS_REQUIRE(kind == core::ScanKind::kExclusive ||
                  in.host_span().data() != out.host_span().data(),
              "cudpp_multiscan: the inclusive fixup pass re-reads the input "
              "and cannot run in place");
  core::RunResult result;
  result.payload_bytes = 2ull * static_cast<std::uint64_t>(n) * g * sizeof(T);
  const double start = dev.clock().now();
  charge_host_overhead(dev, cudpp_traits(), result);

  detail::cudpp_level(dev, in, out, 0, n, n, g, core::ScanKind::kExclusive,
                      op, result);

  if (kind == core::ScanKind::kInclusive) {
    // Extra pass: inclusive[i] = op(exclusive[i], in[i]).
    simt::LaunchConfig cfg;
    cfg.name = "cudpp_inclusive_fixup";
    cfg.grid = {static_cast<int>(util::div_up(
                    static_cast<std::uint64_t>(n),
                    static_cast<std::uint64_t>(detail::kCudppTile))),
                static_cast<int>(g), 1};
    cfg.block = {detail::kCudppThreads, 1, 1};
    cfg.regs_per_thread = 24;
    const auto inv = in.view();
    const auto outv = out.view();
    auto t = simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
      const std::int64_t b = ctx.block_idx().x;
      const std::int64_t p = ctx.block_idx().y;
      const std::int64_t base = p * n + b * detail::kCudppTile;
      const std::int64_t len =
          std::min<std::int64_t>(detail::kCudppTile, n - b * detail::kCudppTile);
      for (std::int64_t i = 0; i < len; i += simt::kWarpSize) {
        const int cnt =
            static_cast<int>(std::min<std::int64_t>(simt::kWarpSize, len - i));
        auto a = outv.load_warp_partial(base + i, cnt, Op::identity(),
                                        ctx.stats());
        const auto x = inv.load_warp_partial(base + i, cnt, Op::identity(),
                                             ctx.stats());
        for (int l = 0; l < cnt; ++l) a[l] = op(a[l], x[l]);
        ctx.count_alu(static_cast<std::uint64_t>(cnt));
        outv.store_warp_partial(base + i, cnt, a, ctx.stats());
      }
    });
    result.breakdown.add("cudpp_inclusive_fixup", t.seconds);
  }

  result.seconds = dev.clock().now() - start;
  return result;
}

}  // namespace mgs::baselines
