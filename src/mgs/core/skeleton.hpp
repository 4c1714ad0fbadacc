#pragma once
/// \file skeleton.hpp
/// BPLG-style computational skeletons for the scan kernels (Section 3.1 of
/// the paper, Figures 4 and 5):
///
///  * each thread owns P register-resident elements, read through int4
///    vector loads (one "quad" = 4 elements per lane, 128 per warp);
///  * a per-lane serial scan of each quad, then a shuffle-based
///    Ladner-Fischer warp scan of the lane totals (exclusive, so the lane
///    adds the prefix directly -- the trick called out in Section 3.1);
///  * warp totals exchanged through shared memory (at most one element per
///    warp, s <= 5) and scanned by warp 0;
///  * a cascade loop: K iterations per block, the running total carried
///    into the next iteration (Figure 5), so one block covers a chunk of
///    K*Lx*P elements.
///
/// All functions are warp-granular: per-lane state lives in WarpReg arrays,
/// a faithful host-side encoding of warp-synchronous CUDA code.

#include <span>
#include <vector>

#include "mgs/core/op.hpp"
#include "mgs/core/plan.hpp"
#include "mgs/simt/device.hpp"
#include "mgs/simt/launch.hpp"
#include "mgs/simt/warp.hpp"

namespace mgs::core {

/// Elements covered by one warp-quad (each lane loads one Vec4).
inline constexpr int kQuadSpan = 4 * simt::kWarpSize;

namespace detail {

/// Load one warp-quad [base, base+valid), valid in [0, 128]; lane l owns
/// elements base+4l .. base+4l+3. Missing elements are filled with the
/// operator identity (they then cannot disturb totals). The full case is a
/// perfectly coalesced 512-byte vector load; the tail falls back to scalar
/// loads, whose extra transactions the cost model sees.
template <typename T, typename Op>
simt::WarpReg<simt::Vec4<T>> load_quad(simt::BlockCtx& ctx,
                                       const simt::GlobalView<T>& in,
                                       std::int64_t base, int valid, Op) {
  if (valid == kQuadSpan) {
    return in.load4_warp(base, ctx.stats());
  }
  simt::WarpReg<simt::Vec4<T>> r;
  for (int l = 0; l < simt::kWarpSize; ++l) {
    for (int i = 0; i < 4; ++i) {
      const int e = 4 * l + i;
      r[l][i] = (e < valid) ? in.load(base + e, ctx.stats()) : Op::identity();
    }
  }
  return r;
}

template <typename T>
void store_quad(simt::BlockCtx& ctx, const simt::GlobalView<T>& out,
                std::int64_t base, int valid,
                const simt::WarpReg<simt::Vec4<T>>& v) {
  if (valid == kQuadSpan) {
    out.store4_warp(base, v, ctx.stats());
    return;
  }
  for (int l = 0; l < simt::kWarpSize; ++l) {
    for (int i = 0; i < 4; ++i) {
      const int e = 4 * l + i;
      if (e < valid) out.store(base + e, v[l][i], ctx.stats());
    }
  }
}

/// Per-lane state of one scanned quad, kept in registers between the
/// compute phase and the (prefix-completed) store phase.
template <typename T>
struct QuadState {
  simt::WarpReg<simt::Vec4<T>> inc;  ///< per-lane inclusive scan of 4
  simt::WarpReg<T> lane_excl;  ///< exclusive prefix of the lane's quad
                               ///< within its warp segment
  std::int64_t base = 0;
  int valid = 0;
};

/// The calling worker's QuadState scratch, at least `count` entries, reused
/// across tiles and launches (a worker scans one tile at a time). scan_tile
/// sets base and valid of every entry and reads inc/lane_excl only where
/// it wrote them, so stale contents never leak into a result.
template <typename T>
std::span<QuadState<T>> quad_scratch(std::size_t count) {
  thread_local std::vector<QuadState<T>> scratch;
  if (scratch.size() < count) scratch.resize(count);
  return {scratch.data(), count};
}

}  // namespace detail

/// Reduce one tile [base, base+valid) of at most sp.tile() elements;
/// returns the tile total (identity when valid == 0). This is the Stage 1
/// (Chunk Reduce) inner loop: no stores, no inter-warp scan -- only warp
/// reductions combined through shared-memory partials.
template <typename T, typename Op>
T reduce_tile(simt::BlockCtx& ctx, const simt::GlobalView<T>& in,
              std::int64_t base, std::int64_t valid, const StagePlan& sp,
              Op op) {
  const int nw = sp.warps();
  const int quads = sp.p / 4;
  T tile_total = Op::identity();
  for (int w = 0; w < nw; ++w) {
    T warp_total = Op::identity();
    for (int q = 0; q < quads; ++q) {
      const std::int64_t off =
          static_cast<std::int64_t>(w) * sp.p * simt::kWarpSize +
          static_cast<std::int64_t>(q) * kQuadSpan;
      if (off >= valid) break;
      const int qvalid =
          static_cast<int>(std::min<std::int64_t>(kQuadSpan, valid - off));
      const auto v = detail::load_quad(ctx, in, base + off, qvalid, op);
      simt::WarpReg<T> lane_sum;
      for (int l = 0; l < simt::kWarpSize; ++l) {
        lane_sum[l] = op(op(v[l].x, v[l].y), op(v[l].z, v[l].w));
      }
      ctx.count_alu(3 * simt::kWarpSize);
      warp_total = op(warp_total, simt::warp_reduce(lane_sum, op, ctx.stats()));
    }
    // Warp writes its partial to shared memory; warp 0 combines.
    tile_total = op(tile_total, warp_total);
    ctx.count_alu(2);
  }
  ctx.sync();
  return tile_total;
}

/// Scan one tile [base, base+valid) of at most sp.tile() elements with an
/// incoming prefix `carry`; writes output (inclusive or exclusive of the
/// element itself; `carry` is always excluded-prefix-so-far) and returns
/// the tile total. This is the Stage 3 (Scan+Addition) inner loop; Stage 2
/// uses the row-scan skeleton below instead.
template <typename T, typename Op>
T scan_tile(simt::BlockCtx& ctx, const simt::GlobalView<T>& in,
            const simt::GlobalView<T>& out, std::int64_t base,
            std::int64_t valid, const StagePlan& sp, T carry, ScanKind kind,
            Op op, std::span<T> smem_partials) {
  const int nw = sp.warps();
  const int quads = sp.p / 4;
  MGS_CHECK(static_cast<int>(smem_partials.size()) >= nw,
            "scan_tile: shared-memory partials span too small");

  const std::span<detail::QuadState<T>> state =
      detail::quad_scratch<T>(static_cast<std::size_t>(nw) * quads);
  T last_warp_total = Op::identity();

  // Phase A: per-warp scans; warp totals to shared memory.
  for (int w = 0; w < nw; ++w) {
    T chain = Op::identity();  // prefix within this warp's segment
    for (int q = 0; q < quads; ++q) {
      auto& st = state[static_cast<std::size_t>(w) * quads + q];
      const std::int64_t off =
          static_cast<std::int64_t>(w) * sp.p * simt::kWarpSize +
          static_cast<std::int64_t>(q) * kQuadSpan;
      st.base = base + off;
      st.valid = (off >= valid)
                     ? 0
                     : static_cast<int>(
                           std::min<std::int64_t>(kQuadSpan, valid - off));
      if (st.valid == 0) continue;
      st.inc = detail::load_quad(ctx, in, st.base, st.valid, op);
      simt::WarpReg<T> lane_tot;
      for (int l = 0; l < simt::kWarpSize; ++l) {
        lane_tot[l] =
            simt::thread_scan_inclusive(&st.inc[l].x, 4, op, ctx.stats());
      }
      simt::WarpReg<T> excl = lane_tot;
      simt::warp_scan_exclusive(excl, op, ctx.stats());
      const T quad_total =
          op(excl[simt::kWarpSize - 1], lane_tot[simt::kWarpSize - 1]);
      for (int l = 0; l < simt::kWarpSize; ++l) {
        st.lane_excl[l] = op(chain, excl[l]);
      }
      ctx.count_alu(simt::kWarpSize + 1);
      chain = op(chain, quad_total);
    }
    last_warp_total = chain;
    smem_partials[static_cast<std::size_t>(w)] = chain;  // smem exchange
  }
  ctx.sync();

  // Phase B: warp 0 scans the (<= 32) warp partials (LF over shuffles).
  simt::WarpReg<T> partials;
  for (int l = 0; l < simt::kWarpSize; ++l) {
    partials[l] = (l < nw) ? smem_partials[static_cast<std::size_t>(l)]
                           : Op::identity();
  }
  simt::warp_scan_exclusive(partials, op, ctx.stats());
  const T tile_total = op(partials[nw - 1], last_warp_total);
  ctx.sync();

  // Phase C: complete prefixes and store.
  for (int w = 0; w < nw; ++w) {
    const T wprefix = op(carry, partials[w]);
    for (int q = 0; q < quads; ++q) {
      const auto& st = state[static_cast<std::size_t>(w) * quads + q];
      if (st.valid == 0) continue;
      simt::WarpReg<simt::Vec4<T>> result;
      for (int l = 0; l < simt::kWarpSize; ++l) {
        const T prefix = op(wprefix, st.lane_excl[l]);
        if (kind == ScanKind::kInclusive) {
          for (int i = 0; i < 4; ++i) result[l][i] = op(prefix, st.inc[l][i]);
        } else {
          result[l][0] = prefix;
          for (int i = 1; i < 4; ++i) {
            result[l][i] = op(prefix, st.inc[l][i - 1]);
          }
        }
      }
      ctx.count_alu(5 * simt::kWarpSize);
      detail::store_quad(ctx, out, st.base, st.valid, result);
    }
  }
  return tile_total;
}

/// Cascade loop for Stage 1: reduce a whole chunk [base, base+len),
/// chaining tile totals across the K iterations (Figure 5). Returns the
/// chunk total.
template <typename T, typename Op>
T cascade_reduce(simt::BlockCtx& ctx, const simt::GlobalView<T>& in,
                 std::int64_t base, std::int64_t len, const StagePlan& sp,
                 Op op) {
  T total = Op::identity();
  for (std::int64_t off = 0; off < len; off += sp.tile()) {
    const std::int64_t valid = std::min<std::int64_t>(sp.tile(), len - off);
    total = op(total, reduce_tile(ctx, in, base + off, valid, sp, op));
    ctx.count_alu(1);
  }
  return total;
}

/// Cascade loop for Stage 3: scan a whole chunk with incoming prefix
/// `carry_in` (the chunk's exclusive prefix from the auxiliary array).
/// Returns the chunk total (excluding carry_in).
template <typename T, typename Op>
T cascade_scan(simt::BlockCtx& ctx, const simt::GlobalView<T>& in,
               const simt::GlobalView<T>& out, std::int64_t base,
               std::int64_t len, const StagePlan& sp, T carry_in,
               ScanKind kind, Op op, std::span<T> smem_partials) {
  T carry = carry_in;
  T total = Op::identity();
  for (std::int64_t off = 0; off < len; off += sp.tile()) {
    const std::int64_t valid = std::min<std::int64_t>(sp.tile(), len - off);
    const T t = scan_tile(ctx, in, out, base + off, valid, sp, carry, kind, op,
                          smem_partials);
    carry = op(carry, t);
    total = op(total, t);
    ctx.count_alu(2);
  }
  return total;
}

/// Warp-cooperative exclusive scan of one row of `len` elements accessed
/// through an arbitrary index mapping (Stage 2 / Intermediate Scan; the
/// mapping is the identity for the single-node layout and a rank-strided
/// permutation for the MPI-gathered layout). In-place.
///
/// LoadFn:  (int64 i0, int n) -> WarpReg<T>   -- row elements [i0, i0+n)
/// StoreFn: (int64 i0, int n, const WarpReg<T>&)
///
/// The row's exclusive prefix starts at `carry_in` (Op::identity() for a
/// whole row), and the row total (excluding carry_in) is returned. This is
/// what lets the wave-pipelined Stage 2 process a row in column chunks:
/// chunk c seeds with the running carry written by chunk c-1 and hands its
/// updated carry to chunk c+1.
template <typename T, typename Op, typename LoadFn, typename StoreFn>
T warp_row_scan_exclusive_carry(simt::BlockCtx& ctx, std::int64_t len,
                                LoadFn load, StoreFn store, Op op,
                                T carry_in) {
  T carry = carry_in;
  T total = Op::identity();
  for (std::int64_t i0 = 0; i0 < len; i0 += simt::kWarpSize) {
    const int n =
        static_cast<int>(std::min<std::int64_t>(simt::kWarpSize, len - i0));
    simt::WarpReg<T> inc = load(i0, n);
    simt::warp_scan_inclusive(inc, op, ctx.stats());
    simt::WarpReg<T> excl;
    for (int l = 0; l < simt::kWarpSize; ++l) {
      excl[l] = (l == 0) ? carry : op(carry, inc[l - 1]);
    }
    ctx.count_alu(simt::kWarpSize);
    store(i0, n, excl);
    if (n > 0) {
      carry = op(carry, inc[n - 1]);
      total = op(total, inc[n - 1]);
    }
  }
  return total;
}

}  // namespace mgs::core
