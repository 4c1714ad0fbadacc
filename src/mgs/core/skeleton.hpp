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
/// All functions are warp-granular: a warp's registers live in lane-major
/// arrays (one WarpReg per register, indexed by lane), a host-side encoding
/// of warp-synchronous CUDA code whose per-lane steps are plain loops over
/// lanes, while a lane's int4 is read and written where it lies, in
/// element order. Each op call takes the operands, in the order, that the
/// warp code would, so results are bit-identical to it; work counters are
/// charged in closed form per tile.
///
/// That lane-order replay is what float operators, the u32 `3a + b` test
/// operator, SegOp and any custom operator run. An operator that declares
/// itself exact on its value type (op.hpp: plus, max and min on integral
/// T) gives the same bits under every grouping, so for it the Stage 1 and
/// Stage 3 tile bodies run the plain serial recurrence instead. Both
/// bodies make the same barrier calls and charge the same counters, so the
/// modeled clock cannot tell them apart.
///
/// Aliasing: a tile body's `out` is either `in` itself (an in-place scan)
/// or shares none of its memory. Both bodies read each element before they
/// write its output, which is all that in-place needs; a partly
/// overlapping `out` would be read after it was written.

#include <algorithm>
#include <array>
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

/// The quad at `src` with `valid` elements (at most kQuadSpan): the memory
/// itself when full, else `pad` holding the valid elements followed by the
/// operator identity (which then cannot disturb totals). One code path
/// scans both.
template <typename T, typename Op>
const T* padded_quad(const T* src, int valid, std::array<T, kQuadSpan>& pad) {
  if (valid == kQuadSpan) return src;
  std::copy(src, src + valid, pad.begin());
  std::fill(pad.begin() + valid, pad.end(), Op::identity());
  return pad.data();
}

/// Charge moving `valid` contiguous elements one warp-quad at a time: a
/// full quad is one coalesced 512-byte int4 warp access; the tail falls
/// back to one scalar access (and transaction) per element.
template <typename T>
void charge_quads(std::uint64_t& bytes, std::uint64_t& transactions,
                  std::int64_t valid) {
  const auto v = static_cast<std::uint64_t>(valid);
  bytes += v * sizeof(T);
  transactions += v / kQuadSpan * util::div_up(kQuadSpan * sizeof(T), 32) +
                  v % kQuadSpan;
}

/// The calling worker's registers for one tile: Stage 3's lane-major lane
/// totals and prefixes, kept between its compute and store phases, reused
/// across tiles and launches (a worker scans one tile at a time).
template <typename T>
std::span<T> tile_regs(std::size_t count) {
  thread_local std::vector<T> regs;
  if (regs.size() < count) regs.resize(count);
  return {regs.data(), count};
}

}  // namespace detail

/// Reduce one tile [base, base+valid) of at most sp.tile() elements;
/// returns the tile total (identity when valid == 0). This is the Stage 1
/// (Chunk Reduce) inner loop: no stores, no inter-warp scan -- only warp
/// reductions combined through shared-memory partials. Warp w owns quads
/// [w*P/4, (w+1)*P/4) of the tile; an exact operator folds the tile
/// serially instead.
template <typename T, typename Op>
T reduce_tile(simt::BlockCtx& ctx, const simt::GlobalView<T>& in,
              std::int64_t base, std::int64_t valid, const StagePlan& sp,
              Op op) {
  const int nw = sp.warps();
  const T* src = in.range(base, valid);
  T tile_total = Op::identity();
  if constexpr (detail::is_exact_v<Op>) {
    // Unrolled so that the loop's speed does not hinge on its code
    // alignment: in one link layout the plain loop gave back all of
    // mps_steady's gain over the lane-order body.
#pragma GCC unroll 4
    for (std::int64_t i = 0; i < valid; ++i) {
      tile_total = op(tile_total, src[i]);
    }
  } else {
    const int quads = sp.p / 4;
    std::array<T, kQuadSpan> pad;
    simt::WarpReg<T> lane_sum;
    for (int w = 0; w < nw; ++w) {
      T warp_total = Op::identity();
      for (int q = 0; q < quads; ++q) {
        const std::int64_t off =
            (static_cast<std::int64_t>(w) * quads + q) * kQuadSpan;
        if (off >= valid) break;
        const int qvalid =
            static_cast<int>(std::min<std::int64_t>(kQuadSpan, valid - off));
        const T* v = detail::padded_quad<T, Op>(src + off, qvalid, pad);
        for (int l = 0; l < simt::kWarpSize; ++l) {
          const T* x = v + 4 * l;  // lane l's int4
          lane_sum[l] = op(op(x[0], x[1]), op(x[2], x[3]));
        }
        warp_total = op(warp_total, simt::lanes_reduce(lane_sum, op));
      }
      // Warp writes its partial to shared memory; warp 0 combines.
      tile_total = op(tile_total, warp_total);
    }
  }
  // Per quad: 3 lane ops + the 5-step warp reduction; 2 per warp partial.
  const auto nq = static_cast<std::uint64_t>(util::div_up(
      static_cast<std::uint64_t>(valid), std::uint64_t{kQuadSpan}));
  ctx.count_alu(nq * (3 + 5 * 2) * simt::kWarpSize +
                2 * static_cast<std::uint64_t>(nw));
  detail::charge_quads<T>(ctx.stats().bytes_read, ctx.stats().mem_transactions,
                          valid);
  ctx.sync();
  return tile_total;
}

namespace detail {

/// scan_tile's lane-order body: the Fig. 4 warp code's op calls, operands
/// and order, without its barriers and counters (scan_tile charges those).
template <typename T, typename Op>
T scan_tile_lanes(const T* src, T* dst, std::int64_t valid,
                  const StagePlan& sp, T carry, ScanKind kind, Op op,
                  std::span<T> smem_partials) {
  constexpr int kW = simt::kWarpSize;
  const int nw = sp.warps();
  const int quads = sp.p / 4;
  const int nq = static_cast<int>(util::div_up(
      static_cast<std::uint64_t>(valid), std::uint64_t{kQuadSpan}));
  const auto quad = [&](int j) {
    return static_cast<std::int64_t>(j) * kQuadSpan;
  };
  const auto quad_valid = [&](int j) {
    return static_cast<int>(
        std::min<std::int64_t>(kQuadSpan, valid - quad(j)));
  };
  // Per valid quad, lane-major: the lane totals, their inclusive warp
  // scan, and each lane's exclusive prefix within its warp segment (which
  // is first the scan's scratch).
  const std::span<simt::WarpReg<T>> regs =
      tile_regs<simt::WarpReg<T>>(3 * static_cast<std::size_t>(nq));
  const auto lane_total = regs.subspan(0, nq);
  const auto lane_incl = regs.subspan(nq, nq);
  const auto lane_prefix = regs.subspan(2 * static_cast<std::size_t>(nq), nq);
  std::array<T, kQuadSpan> pad;

  // Phase A: each lane's serial scan of its int4, in element order, down
  // to the lane total; then the warp scans of every quad's lane totals.
  for (int j = 0; j < nq; ++j) {
    const T* v = padded_quad<T, Op>(src + quad(j), quad_valid(j), pad);
    simt::WarpReg<T> t;
    for (int l = 0; l < kW; ++l) {
      const T* x = v + 4 * l;
      t[l] = op(op(op(x[0], x[1]), x[2]), x[3]);
    }
    lane_total[j] = t;
  }
  simt::lanes_scan_inclusive<T>(lane_total, lane_incl, lane_prefix, op);
  // Per warp, chain its quads; warp totals to shared memory. Exclusive
  // lane prefixes are the inclusive ones shifted by a lane.
  T last_warp_total = Op::identity();
  for (int w = 0; w < nw; ++w) {
    T chain = Op::identity();  // prefix within this warp's segment
    for (int q = 0; q < quads; ++q) {
      const int j = w * quads + q;
      if (j >= nq) break;
      const simt::WarpReg<T>& incl = lane_incl[j];
      simt::WarpReg<T>& excl = lane_prefix[j];
      excl[0] = op(chain, Op::identity());
      for (int l = 1; l < kW; ++l) excl[l] = op(chain, incl[l - 1]);
      // The quad total: lane 31's exclusive prefix, then its total.
      chain = op(chain, op(incl[kW - 2], lane_total[j][kW - 1]));
    }
    last_warp_total = chain;
    smem_partials[static_cast<std::size_t>(w)] = chain;  // smem exchange
  }

  // Phase B: warp 0 scans the (<= 32) warp partials (LF over shuffles).
  simt::WarpReg<T> partials;
  for (int l = 0; l < kW; ++l) {
    partials[l] = (l < nw) ? smem_partials[static_cast<std::size_t>(l)]
                           : Op::identity();
  }
  simt::lanes_scan_inclusive(partials, op);
  const auto excl_partial = [&](int w) {
    return w == 0 ? Op::identity() : partials[w - 1];
  };
  const T tile_total = op(excl_partial(nw - 1), last_warp_total);

  // Phase C: complete each lane's prefix, then run the lane's serial scan
  // again and combine, in element order, straight into the output (a tail
  // quad goes through `pad`). Repeating the scan's op calls on the same
  // operands is cheaper than storing and reloading their results.
  simt::WarpReg<T> prefix;
  for (int j = 0; j < nq; ++j) {
    const T wprefix = op(carry, excl_partial(j / quads));
    for (int l = 0; l < kW; ++l) prefix[l] = op(wprefix, lane_prefix[j][l]);
    const int qvalid = quad_valid(j);
    const T* v = padded_quad<T, Op>(src + quad(j), qvalid, pad);
    T* y = qvalid == kQuadSpan ? dst + quad(j) : pad.data();
    if (kind == ScanKind::kInclusive) {
      for (int l = 0; l < kW; ++l) {
        const T* x = v + 4 * l;
        const T i0 = x[0];
        const T i1 = op(i0, x[1]);
        const T i2 = op(i1, x[2]);
        const T i3 = op(i2, x[3]);
        T* o = y + 4 * l;
        o[0] = op(prefix[l], i0);
        o[1] = op(prefix[l], i1);
        o[2] = op(prefix[l], i2);
        o[3] = op(prefix[l], i3);
      }
    } else {
      for (int l = 0; l < kW; ++l) {
        const T* x = v + 4 * l;
        const T i0 = x[0];
        const T i1 = op(i0, x[1]);
        const T i2 = op(i1, x[2]);
        T* o = y + 4 * l;
        o[0] = prefix[l];
        o[1] = op(prefix[l], i0);
        o[2] = op(prefix[l], i1);
        o[3] = op(prefix[l], i2);
      }
    }
    if (qvalid != kQuadSpan) {
      std::copy(pad.begin(), pad.begin() + qvalid, dst + quad(j));
    }
  }

  return tile_total;
}

}  // namespace detail

/// Scan one tile [base, base+valid) of at most sp.tile() elements with an
/// incoming prefix `carry`; writes output (inclusive or exclusive of the
/// element itself; `carry` is always excluded-prefix-so-far) and returns
/// the tile total. This is the Stage 3 (Scan+Addition) inner loop; Stage 2
/// uses the row-scan skeleton below instead. `out` may be `in` itself
/// (see the file comment); an exact operator runs one serial recurrence
/// from the identity, any other the lane-order body.
template <typename T, typename Op>
T scan_tile(simt::BlockCtx& ctx, const simt::GlobalView<T>& in,
            const simt::GlobalView<T>& out, std::int64_t base,
            std::int64_t valid, const StagePlan& sp, T carry, ScanKind kind,
            Op op, std::span<T> smem_partials) {
  constexpr int kW = simt::kWarpSize;
  MGS_CHECK(static_cast<int>(smem_partials.size()) >= sp.warps(),
            "scan_tile: shared-memory partials span too small");
  const T* src = in.range(base, valid);
  T* dst = out.range(base, valid);
  T tile_total = Op::identity();
  if constexpr (detail::is_exact_v<Op>) {
    // One recurrence from the identity, unrolled like reduce_tile's.
    if (kind == ScanKind::kInclusive) {
#pragma GCC unroll 4
      for (std::int64_t i = 0; i < valid; ++i) {
        tile_total = op(tile_total, src[i]);
        dst[i] = op(carry, tile_total);
      }
    } else {
#pragma GCC unroll 4
      for (std::int64_t i = 0; i < valid; ++i) {
        const T x = src[i];
        dst[i] = op(carry, tile_total);
        tile_total = op(tile_total, x);
      }
    }
  } else {
    tile_total = detail::scan_tile_lanes(src, dst, valid, sp, carry, kind, op,
                                         smem_partials);
  }

  // Two barriers: the warp partials into shared memory, and their scan
  // back out. Per quad: the 4-element lane scan, the exclusive warp scan
  // (5 steps plus the shift), 33 prefix ops, and 5 completion ops per
  // lane; the partials' exclusive scan once.
  ctx.sync();
  ctx.sync();
  const auto nq = static_cast<std::uint64_t>(util::div_up(
      static_cast<std::uint64_t>(valid), std::uint64_t{kQuadSpan}));
  ctx.count_alu(nq * ((4 + 5 * 2 + 2 + 5) * kW + 1 + kW) +
                (5 * 2 + 2) * kW);
  auto& st = ctx.stats();
  detail::charge_quads<T>(st.bytes_read, st.mem_transactions, valid);
  detail::charge_quads<T>(st.bytes_written, st.mem_transactions, valid);
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
