#pragma once
/// \file warp.hpp
/// Warp-level primitives: shuffles and Ladner-Fischer scans over a 32-lane
/// register file. These are the building blocks of the paper's Figure 4
/// (per-thread P-element scan -> shuffle warp scan -> shared-memory warp
/// partials). Every primitive charges its lane-operations to a
/// sim::KernelStats so the cost model sees the ALU work.

#include <span>

#include "mgs/sim/cost_model.hpp"
#include "mgs/simt/types.hpp"

namespace mgs::simt {

/// __shfl_up_sync: lane l receives the value of lane l-delta; lanes with
/// l < delta keep their own value (CUDA semantics: the source value is
/// returned unchanged but the caller predicates on lane id -- we fold that
/// predication in, which is what scan code always does).
template <typename T>
WarpReg<T> shfl_up(const WarpReg<T>& x, int delta, sim::KernelStats& st) {
  WarpReg<T> y;
  for (int l = 0; l < kWarpSize; ++l) {
    y[l] = (l >= delta) ? x[l - delta] : x[l];
  }
  st.alu_ops += kWarpSize;
  return y;
}

/// __shfl_sync with a uniform source lane: broadcast lane `src` to all.
template <typename T>
T shfl_idx(const WarpReg<T>& x, int src, sim::KernelStats& st) {
  st.alu_ops += kWarpSize;
  return x[src];
}

/// One Kogge-Stone step out of place: lanes below D keep their value, lane
/// l >= D combines op(x[l-D], x[l]). Split into two fixed-trip loops so the
/// compiler vectorizes both; the two register files never overlap, and
/// saying so (__restrict) lets it do that without a runtime overlap check
/// when they are slots of one array.
template <int D, typename T, typename Op>
void ks_step(const T* __restrict x, T* __restrict y, Op op) {
  for (int l = 0; l < D; ++l) y[l] = x[l];
  for (int l = D; l < kWarpSize; ++l) y[l] = op(x[l - D], x[l]);
}

/// The lane arithmetic of the inclusive warp scan, uncharged: the five
/// steps of ks_step. After the call x[l] = op(x[0], ..., x[l]). Tile
/// bodies that charge their work in closed form call this directly.
template <typename T, typename Op>
void lanes_scan_inclusive(WarpReg<T>& x, Op op) {
  static_assert(kWarpSize == 32, "five Kogge-Stone steps cover 32 lanes");
  WarpReg<T> y;
  ks_step<1>(x.data(), y.data(), op);
  ks_step<2>(y.data(), x.data(), op);
  ks_step<4>(x.data(), y.data(), op);
  ks_step<8>(y.data(), x.data(), op);
  ks_step<16>(x.data(), y.data(), op);
  x = y;
}

/// ks_step<D> from each register file of `from` into the same slot of `to`.
template <int D, typename T, typename Op>
void ks_steps(std::span<const WarpReg<T>> from, std::span<WarpReg<T>> to,
              Op op) {
  for (std::size_t w = 0; w < from.size(); ++w) {
    ks_step<D>(from[w].data(), to[w].data(), op);
  }
}

/// lanes_scan_inclusive of many warps' registers at once: out[w] becomes
/// x[w] scanned, with the same op calls per warp. Each Kogge-Stone step
/// runs over every warp before the next step starts, so a step reloads
/// values stored a whole batch earlier rather than the vector stores just
/// issued (a reload at an unaligned lane offset misses store-to-load
/// forwarding and stalls). `tmp` is scratch; x is left as it was.
template <typename T, typename Op>
void lanes_scan_inclusive(std::span<const WarpReg<T>> x,
                          std::span<WarpReg<T>> out, std::span<WarpReg<T>> tmp,
                          Op op) {
  static_assert(kWarpSize == 32, "five Kogge-Stone steps cover 32 lanes");
  ks_steps<1, T>(x, out, op);
  ks_steps<2, T>(out, tmp, op);
  ks_steps<4, T>(tmp, out, op);
  ks_steps<8, T>(out, tmp, op);
  ks_steps<16, T>(tmp, out, op);
}

/// Inclusive Ladner-Fischer warp scan using log2(32) = 5 shuffle steps.
/// After the call, x[l] = op(x[0], ..., x[l]).
///
/// Each step is a shfl_up by delta followed by a predicated op: every lane
/// applies op(old[l-delta], old[l]) -- the operands and order of the
/// shuffle -- so float results are bit-identical to warp code.
template <typename T, typename Op>
void warp_scan_inclusive(WarpReg<T>& x, Op op, sim::KernelStats& st) {
  lanes_scan_inclusive(x, op);
  st.alu_ops += 5 * 2 * kWarpSize;  // shfl_up + predicated op, 5 steps
}

/// Exclusive warp scan: x[l] = op(identity, x[0..l-1]). Implemented the way
/// the paper describes (Section 3.1): compute the inclusive scan, then each
/// lane subtracts -- here, shuffles up by one (in place, descending) and
/// lane 0 takes the identity.
template <typename T, typename Op>
void warp_scan_exclusive(WarpReg<T>& x, Op op, sim::KernelStats& st) {
  warp_scan_inclusive(x, op, st);
  for (int l = kWarpSize - 1; l > 0; --l) x[l] = x[l - 1];
  x[0] = Op::identity();
  st.alu_ops += 2 * kWarpSize;  // shfl_up + lane-0 select
}

/// Warp-wide reduction; returns op over all 32 lanes (valid in every lane's
/// view; costs the same 5 shuffle steps as the inclusive scan).
///
/// Only lane 31's result is returned, and its dependency cone in the
/// Kogge-Stone scan above is a perfect binary tree: step delta combines
/// lanes (l - delta, l) for l = 31, 31 - 2*delta, ... So the tree below
/// makes the scan's 31 op calls on lane 31's path, with the same operands
/// in the same order, and returns the same bits. lanes_reduce is the
/// uncharged tree.
template <typename T, typename Op>
T lanes_reduce(const WarpReg<T>& x, Op op) {
  std::array<T, kWarpSize / 2> y;
  for (int i = 0; i < kWarpSize / 2; ++i) y[i] = op(x[2 * i], x[2 * i + 1]);
  for (int n = kWarpSize / 4; n >= 1; n /= 2) {
    for (int i = 0; i < n; ++i) y[i] = op(y[2 * i], y[2 * i + 1]);
  }
  return y[0];
}

template <typename T, typename Op>
T warp_reduce(const WarpReg<T>& x, Op op, sim::KernelStats& st) {
  st.alu_ops += 5 * 2 * kWarpSize;  // charged like warp_scan_inclusive
  return lanes_reduce(x, op);
}

/// Per-thread serial scan of P register-resident elements (the red step in
/// the paper's Figure 4). v is one lane's registers; after the call
/// v[i] = op(v[0..i]) and the lane's total is returned.
template <typename T, typename Op>
T thread_scan_inclusive(T* v, int p, Op op, sim::KernelStats& st) {
  for (int i = 1; i < p; ++i) {
    v[i] = op(v[i - 1], v[i]);
  }
  st.alu_ops += static_cast<std::uint64_t>(p);
  return v[p - 1];
}

/// Add a carried-in prefix to all P elements of one lane.
template <typename T, typename Op>
void thread_add_prefix(T* v, int p, T prefix, Op op, sim::KernelStats& st) {
  for (int i = 0; i < p; ++i) {
    v[i] = op(prefix, v[i]);
  }
  st.alu_ops += static_cast<std::uint64_t>(p);
}

}  // namespace mgs::simt
