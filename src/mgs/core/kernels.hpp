#pragma once
/// \file kernels.hpp
/// The three kernels of the large-size scan (Section 3.1, Figure 3):
///
///   Stage 1  Chunk Reduce       -- one block per chunk, reduction into the
///                                  auxiliary array (one element per chunk);
///   Stage 2  Intermediate Scan  -- exclusive scan of each problem's chunk
///                                  totals, several problems per block;
///   Stage 3  Scan + Addition    -- local chunk scan with the auxiliary
///                                  element folded into every output.
///
/// Grids are two-dimensional: x indexes chunks within a problem (B_x),
/// y indexes the batch (B_y = G). Launchers return the simulated timing.

#include <algorithm>
#include <type_traits>

#include "mgs/core/skeleton.hpp"

namespace mgs::core {

/// Stage 1. `in` holds G portions of lay.n_local contiguous elements
/// (problem g at offset g*lay.pitch); `aux` receives the chunk reductions,
/// problem-major (aux[g*bx + c]). `g_begin`/`g_count` restrict the launch
/// to a slice of the batch dimension (a pipeline wave); indexing into `in`
/// and `aux` stays absolute, so slices compose to exactly the full launch.
template <typename T, typename Op>
sim::KernelTime launch_chunk_reduce(simt::Device& dev,
                                    const simt::DeviceBuffer<T>& in,
                                    simt::DeviceBuffer<T>& aux,
                                    const BatchLayout& lay,
                                    const StagePlan& sp, Op op,
                                    std::int64_t g_begin = 0,
                                    std::int64_t g_count = -1) {
  if (g_count < 0) g_count = lay.g - g_begin;
  MGS_CHECK(g_begin >= 0 && g_count >= 0 && g_begin + g_count <= lay.g,
            "chunk_reduce: batch slice out of range");
  MGS_CHECK(in.size() >= lay.extent(), "chunk_reduce: input too small");
  MGS_CHECK(aux.size() >= lay.aux_elems(), "chunk_reduce: aux too small");
  if (g_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = "chunk_reduce";
  cfg.grid = {static_cast<int>(lay.bx), static_cast<int>(g_count), 1};
  cfg.block = {sp.lx, sp.ly, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  const auto inv = in.view();
  const auto auxv = aux.view();
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t c = ctx.block_idx().x;
    const std::int64_t g = g_begin + ctx.block_idx().y;
    const std::int64_t chunk_off = c * lay.chunk;
    const std::int64_t len =
        std::min<std::int64_t>(lay.chunk, lay.n_local - chunk_off);
    const T total =
        cascade_reduce(ctx, inv, g * lay.pitch + chunk_off, len, sp, op);
    auxv.store(g * lay.bx + c, total, ctx.stats());
  });
}

/// Stage 2, contiguous layout: `aux` holds rows of `row_len` chunk totals
/// (row r at offset r*row_len); rows [g_begin, g_begin+g_count), columns
/// [c_begin, c_begin+c_count) of each row are exclusively scanned in
/// place. Several problems share a block (L_y^2 = s2.ly, B_x^2 = 1).
/// The whole matrix is one call (every row, every column, no carry). The
/// wave-pipelined path scans a row in column chunks with a per-row running
/// carry kept in `carry` (>= g_begin+g_count elements): column chunk 0
/// seeds the carry from the identity; later chunks seed from (and update)
/// the carry the previous chunk of the same row wrote, so processing every
/// chunk of a row in ascending column order reproduces the whole-row
/// output bit-for-bit. Issue chunks of one row in column order on a single
/// in-order stream; distinct rows are independent. Without a carry buffer
/// the launch neither loads nor stores one (c_begin must then be 0).
template <typename T, typename Op>
sim::KernelTime launch_intermediate_scan_slice(
    simt::Device& dev, simt::DeviceBuffer<T>& aux, std::int64_t row_len,
    std::int64_t g_begin, std::int64_t g_count, std::int64_t c_begin,
    std::int64_t c_count, std::type_identity_t<simt::DeviceBuffer<T>>* carry,
    const StagePlan& s2, Op op) {
  MGS_CHECK(g_begin >= 0 && g_count >= 0, "intermediate_scan_slice: bad rows");
  MGS_CHECK(c_begin >= 0 && c_count >= 0 && c_begin + c_count <= row_len,
            "intermediate_scan_slice: bad columns");
  MGS_CHECK(aux.size() >= (g_begin + g_count) * row_len,
            "intermediate_scan_slice: aux too small");
  MGS_CHECK(carry != nullptr ? carry->size() >= g_begin + g_count
                             : c_begin == 0,
            "intermediate_scan_slice: carry too small");
  if (g_count == 0 || c_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = "intermediate_scan";
  cfg.grid = {1, static_cast<int>(util::div_up(
                     static_cast<std::uint64_t>(g_count),
                     static_cast<std::uint64_t>(s2.ly))),
              1};
  cfg.block = {s2.lx, s2.ly, 1};
  cfg.regs_per_thread = s2.regs_per_thread();
  cfg.smem_per_block = s2.smem_bytes(sizeof(T));
  const auto auxv = aux.view();
  const bool carried = carry != nullptr;
  const auto carryv = carried ? carry->view() : simt::GlobalView<T>{};
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    for (int r = 0; r < s2.ly; ++r) {
      const std::int64_t local_row =
          static_cast<std::int64_t>(ctx.block_idx().y) * s2.ly + r;
      if (local_row >= g_count) break;
      const std::int64_t row = g_begin + local_row;
      const std::int64_t base = row * row_len + c_begin;
      const T carry_in =
          (c_begin == 0) ? Op::identity() : carryv.load(row, ctx.stats());
      const T total = warp_row_scan_exclusive_carry<T>(
          ctx, c_count,
          [&](std::int64_t i0, int n) {
            return auxv.load_warp_partial(base + i0, n, Op::identity(),
                                          ctx.stats());
          },
          [&](std::int64_t i0, int n, const simt::WarpReg<T>& v) {
            auxv.store_warp_partial(base + i0, n, v, ctx.stats());
          },
          op, carry_in);
      if (carried) carryv.store(row, op(carry_in, total), ctx.stats());
    }
  });
}

/// Stage 2, strided layout (MPI_Gather output, rank-major): element i of
/// problem row `row` lives at offset (i / bx)*(g*bx) + row*bx + (i % bx).
/// Scalar (uncoalesced) accesses -- the honest price of the MPI layout.
/// Rows and element-index columns select a slice exactly as in
/// launch_intermediate_scan_slice, with the same optional carry; the
/// wave-pipelined multinode Stage 2 uses one column chunk per rank
/// (c_begin = rank*bx, c_count = bx), issued in ascending rank order per
/// row.
template <typename T, typename Op>
sim::KernelTime launch_intermediate_scan_ranked_slice(
    simt::Device& dev, simt::DeviceBuffer<T>& aux, std::int64_t bx,
    std::int64_t ranks, std::int64_t g, std::int64_t g_begin,
    std::int64_t g_count, std::int64_t c_begin, std::int64_t c_count,
    std::type_identity_t<simt::DeviceBuffer<T>>* carry, const StagePlan& s2,
    Op op) {
  const std::int64_t row_len = ranks * bx;
  MGS_CHECK(g_begin >= 0 && g_count >= 0 && g_begin + g_count <= g,
            "intermediate_scan_ranked_slice: bad rows");
  MGS_CHECK(c_begin >= 0 && c_count >= 0 && c_begin + c_count <= row_len,
            "intermediate_scan_ranked_slice: bad columns");
  MGS_CHECK(aux.size() >= ranks * g * bx,
            "intermediate_scan_ranked_slice: aux too small");
  MGS_CHECK(carry != nullptr ? carry->size() >= g_begin + g_count
                             : c_begin == 0,
            "intermediate_scan_ranked_slice: carry too small");
  if (g_count == 0 || c_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = "intermediate_scan_ranked";
  cfg.grid = {1, static_cast<int>(util::div_up(
                     static_cast<std::uint64_t>(g_count),
                     static_cast<std::uint64_t>(s2.ly))),
              1};
  cfg.block = {s2.lx, s2.ly, 1};
  cfg.regs_per_thread = s2.regs_per_thread();
  cfg.smem_per_block = s2.smem_bytes(sizeof(T));
  const auto auxv = aux.view();
  const bool carried = carry != nullptr;
  const auto carryv = carried ? carry->view() : simt::GlobalView<T>{};
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    for (int r = 0; r < s2.ly; ++r) {
      const std::int64_t local_row =
          static_cast<std::int64_t>(ctx.block_idx().y) * s2.ly + r;
      if (local_row >= g_count) break;
      const std::int64_t row = g_begin + local_row;
      const auto offset_of = [&](std::int64_t i) {
        return (i / bx) * (g * bx) + row * bx + (i % bx);
      };
      const T carry_in =
          (c_begin == 0) ? Op::identity() : carryv.load(row, ctx.stats());
      const T total = warp_row_scan_exclusive_carry<T>(
          ctx, c_count,
          [&](std::int64_t i0, int n) {
            simt::WarpReg<T> v;
            for (int l = 0; l < simt::kWarpSize; ++l) {
              v[l] = (l < n)
                         ? auxv.load(offset_of(c_begin + i0 + l), ctx.stats())
                         : Op::identity();
            }
            return v;
          },
          [&](std::int64_t i0, int n, const simt::WarpReg<T>& v) {
            for (int l = 0; l < n; ++l) {
              auxv.store(offset_of(c_begin + i0 + l), v[l], ctx.stats());
            }
          },
          op, carry_in);
      if (carried) carryv.store(row, op(carry_in, total), ctx.stats());
    }
  });
}

/// Stage 3. `aux` holds the *exclusively scanned* chunk totals for this
/// GPU's chunks, problem-major like Stage 1 wrote them. `in` and `out`
/// share the layout's pitch; `out` may be `in` itself (in-place scan) but
/// must not overlap it otherwise (rows.hpp).
template <typename T, typename Op>
sim::KernelTime launch_scan_add(simt::Device& dev,
                                const simt::DeviceBuffer<T>& in,
                                simt::DeviceBuffer<T>& out,
                                const simt::DeviceBuffer<T>& aux,
                                const BatchLayout& lay, const StagePlan& sp,
                                ScanKind kind, Op op,
                                std::int64_t g_begin = 0,
                                std::int64_t g_count = -1) {
  if (g_count < 0) g_count = lay.g - g_begin;
  MGS_CHECK(g_begin >= 0 && g_count >= 0 && g_begin + g_count <= lay.g,
            "scan_add: batch slice out of range");
  MGS_CHECK(in.size() >= lay.extent(), "scan_add: input too small");
  MGS_CHECK(out.size() >= lay.extent(), "scan_add: output too small");
  MGS_CHECK(aux.size() >= lay.aux_elems(), "scan_add: aux too small");
  if (g_count == 0) return {};
  simt::LaunchConfig cfg;
  cfg.name = "scan_add";
  cfg.grid = {static_cast<int>(lay.bx), static_cast<int>(g_count), 1};
  cfg.block = {sp.lx, sp.ly, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  const auto inv = in.view();
  const auto outv = out.view();
  const auto auxv = aux.view();
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t c = ctx.block_idx().x;
    const std::int64_t g = g_begin + ctx.block_idx().y;
    const std::int64_t chunk_off = c * lay.chunk;
    const std::int64_t len =
        std::min<std::int64_t>(lay.chunk, lay.n_local - chunk_off);
    const T carry_in = auxv.load(g * lay.bx + c, ctx.stats());
    auto smem = ctx.shared<T>(sp.warps());
    cascade_scan(ctx, inv, outv, g * lay.pitch + chunk_off, len, sp,
                 carry_in, kind, op, smem);
  });
}

/// Single-kernel path for problems that fit in one chunk (B_x = 1): a
/// direct cascade scan with identity carry, skipping stages 1-2 entirely.
template <typename T, typename Op>
sim::KernelTime launch_direct_scan(simt::Device& dev,
                                   const simt::DeviceBuffer<T>& in,
                                   simt::DeviceBuffer<T>& out,
                                   const BatchLayout& lay, const StagePlan& sp,
                                   ScanKind kind, Op op) {
  MGS_CHECK(lay.bx == 1, "direct_scan requires a single chunk per problem");
  MGS_CHECK(in.size() >= lay.extent(), "direct_scan: input too small");
  MGS_CHECK(out.size() >= lay.extent(), "direct_scan: output too small");
  simt::LaunchConfig cfg;
  cfg.name = "direct_scan";
  cfg.grid = {1, static_cast<int>(lay.g), 1};
  cfg.block = {sp.lx, sp.ly, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  const auto inv = in.view();
  const auto outv = out.view();
  return simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t g = ctx.block_idx().y;
    auto smem = ctx.shared<T>(sp.warps());
    cascade_scan(ctx, inv, outv, g * lay.pitch, lay.n_local, sp,
                 Op::identity(), kind, op, smem);
  });
}

}  // namespace mgs::core
