#pragma once
/// \file reduce.hpp
/// Batched reduction: G problems of N elements -> G totals, in one
/// invocation. This is the paper's Stage 1 promoted to a public
/// primitive: chunk reductions with the cascade skeleton, then one small
/// kernel folds each problem's chunk totals.

#include <span>

#include "mgs/core/kernels.hpp"

namespace mgs::core {

/// Reduce each of the `g` problems of `n` contiguous elements in `in`
/// into `out[p]` (out must hold at least g elements). Both spans are
/// borrowed in place as memory of `dev`, as in scan_sp.
template <typename T, typename Op = Plus<T>>
RunResult reduce_sp(simt::Device& dev, std::span<const T> in,
                    std::span<T> out, std::int64_t n, std::int64_t g,
                    const StagePlan& sp, Op op = {}) {
  sp.validate();
  MGS_REQUIRE(sp.ly == 1, "reduce_sp: stage-1 plans put one problem per block");
  MGS_REQUIRE(n > 0 && g > 0, "reduce_sp: N and G must be positive");
  MGS_REQUIRE(static_cast<std::int64_t>(in.size()) >= n * g,
              "reduce_sp: input too small");
  MGS_REQUIRE(static_cast<std::int64_t>(out.size()) >= g,
              "reduce_sp: output must hold G totals");
  // Read-only through `in` by contract: only `out` is stored through.
  const auto src =
      dev.borrow(std::span<T>(const_cast<T*>(in.data()), in.size()));
  const auto dst = dev.borrow(out);

  const BatchLayout lay = make_layout(n, g, sp);
  RunResult result;
  result.payload_bytes = static_cast<std::uint64_t>(n) * g * sizeof(T);
  const double start = dev.clock().now();

  auto aux = dev.alloc<T>(lay.aux_elems());
  const auto t1 = launch_chunk_reduce(dev, src, aux, lay, sp, op);
  result.breakdown.add("ChunkReduce", t1.seconds);

  // Fold each problem's bx chunk totals: one warp per problem row.
  simt::LaunchConfig cfg;
  cfg.name = "row_reduce";
  const int rows_per_block = 4;
  cfg.grid = {1,
              static_cast<int>(util::div_up(
                  static_cast<std::uint64_t>(g),
                  static_cast<std::uint64_t>(rows_per_block))),
              1};
  cfg.block = {simt::kWarpSize, rows_per_block, 1};
  cfg.regs_per_thread = 24;
  const auto auxv = aux.view();
  const auto outv = dst.view();
  const std::int64_t bx = lay.bx;
  const auto t2 = simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    for (int r = 0; r < rows_per_block; ++r) {
      const std::int64_t row =
          static_cast<std::int64_t>(ctx.block_idx().y) * rows_per_block + r;
      if (row >= g) break;
      T total = Op::identity();
      for (std::int64_t i = 0; i < bx; i += simt::kWarpSize) {
        const int cnt = static_cast<int>(
            std::min<std::int64_t>(simt::kWarpSize, bx - i));
        auto v = auxv.load_warp_partial(row * bx + i, cnt, Op::identity(),
                                        ctx.stats());
        total = op(total, simt::warp_reduce(v, op, ctx.stats()));
      }
      outv.store(row, total, ctx.stats());
    }
  });
  result.breakdown.add("RowReduce", t2.seconds);

  result.seconds = dev.clock().now() - start;
  return result;
}

}  // namespace mgs::core
