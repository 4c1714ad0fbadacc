#pragma once
/// \file segmented.hpp
/// Segmented scan extension (the operator-extension approach the paper
/// describes for the CUB comparison in Section 5.1: "modifying the
/// datatype and extending the sum operator with an additional condition").
///
/// Values are packed with their segment-head flags into pairs, scanned
/// with the flag-respecting operator, and unpacked. The pack/unpack passes
/// and the doubled element size are charged to the simulated time -- the
/// same overhead that makes Thrust's flag-carrying segmented scan slow in
/// the paper's evaluation.

#include "mgs/core/dtype.hpp"
#include "mgs/core/scan_sp.hpp"

namespace mgs::core {

/// Value + segment flag, kept at 2*sizeof(T) for alignment.
template <typename T>
struct SegPair {
  T value{};
  T flag{};  ///< nonzero marks the first element of a segment

  friend bool operator==(const SegPair&, const SegPair&) = default;
};

/// The classic segmented-scan operator: a segment head absorbs nothing
/// from its left. Associative (flags OR together; value restarts at the
/// rightmost head).
template <typename T, typename Op>
struct SegOp {
  using value_type = SegPair<T>;
  static constexpr SegPair<T> identity() {
    return SegPair<T>{Op::identity(), T{0}};
  }
  constexpr SegPair<T> operator()(SegPair<T> a, SegPair<T> b) const {
    SegPair<T> r;
    r.value = (b.flag != T{0}) ? b.value : Op{}(a.value, b.value);
    r.flag = (a.flag != T{0} || b.flag != T{0}) ? T{1} : T{0};
    return r;
  }
  static constexpr const char* name() { return "seg"; }
};

/// Plan-cache and TypedSpan identity of the packed representation: the
/// scalar dtype with the segmented flag set (elem_bytes doubles). This is
/// what lets SegPair workloads ride the ScanContext plan cache and the
/// erased executor stack.
template <typename T>
struct PlanTypeOf<SegPair<T>> {
  static constexpr DType dtype = PlanTypeOf<T>::dtype;
  static constexpr bool segmented = true;
};

/// A SegOp keys plans (and labels spans/metrics) by its inner operator.
template <typename T, typename Op>
struct OpTagOf<SegOp<T, Op>> {
  static constexpr std::optional<OpTag> value = OpTagOf<Op>::value;
};

/// Inclusive segmented scan of one sequence on one GPU. flags[i] != 0
/// marks element i as the first of a segment (element 0 is implicitly a
/// head). Exclusive segmented scans are intentionally not offered: with
/// restarts the "shift" trick is no longer operator-generic.
template <typename T, typename Op = Plus<T>>
RunResult segmented_scan_sp(simt::Device& dev,
                            const simt::DeviceBuffer<T>& in,
                            const simt::DeviceBuffer<T>& flags,
                            simt::DeviceBuffer<T>& out, std::int64_t n,
                            const ScanPlan& plan, Op = {},
                            WorkspacePool* ws = nullptr) {
  MGS_REQUIRE(n > 0, "segmented_scan_sp: empty input");
  MGS_REQUIRE(in.size() >= n && flags.size() >= n && out.size() >= n,
              "segmented_scan_sp: buffers must hold N elements");

  const double start = dev.clock().now();
  auto packed = acquire_workspace<SegPair<T>>(ws, dev, n);
  auto packed_out = acquire_workspace<SegPair<T>>(ws, dev, n);

  // Pack kernel: one block per 4096-element slab, warp-vectorized.
  constexpr std::int64_t kSlab = 4096;
  simt::LaunchConfig pack_cfg;
  pack_cfg.name = "seg_pack";
  pack_cfg.grid = {static_cast<int>(util::div_up(
                       static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(kSlab))),
                   1, 1};
  pack_cfg.block = {plan.s13.lx, 1, 1};
  pack_cfg.regs_per_thread = 24;
  const auto inv = in.view();
  const auto flv = flags.view();
  const auto pkv = packed.view();
  RunResult result;
  auto t_pack = simt::launch(dev, pack_cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t base = static_cast<std::int64_t>(ctx.block_idx().x) * kSlab;
    const std::int64_t len = std::min<std::int64_t>(kSlab, n - base);
    for (std::int64_t i0 = 0; i0 < len; i0 += simt::kWarpSize) {
      const int cnt = static_cast<int>(
          std::min<std::int64_t>(simt::kWarpSize, len - i0));
      const auto v = inv.load_warp_partial(base + i0, cnt, T{}, ctx.stats());
      const auto f = flv.load_warp_partial(base + i0, cnt, T{}, ctx.stats());
      simt::WarpReg<SegPair<T>> pairs{};
      for (int l = 0; l < cnt; ++l) pairs[l] = SegPair<T>{v[l], f[l]};
      pkv.store_warp_partial(base + i0, cnt, pairs, ctx.stats());
    }
  });
  result.breakdown.add("Pack", t_pack.seconds);

  RunResult scan = scan_sp<SegPair<T>, SegOp<T, Op>>(
      dev, packed.buffer(), packed_out.buffer(), n, 1, plan,
      ScanKind::kInclusive, {}, ws);
  result.breakdown.merge(scan.breakdown);

  // Unpack kernel.
  simt::LaunchConfig unpack_cfg = pack_cfg;
  unpack_cfg.name = "seg_unpack";
  const auto pov = packed_out.view();
  const auto outv = out.view();
  auto t_unpack = simt::launch(dev, unpack_cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t base = static_cast<std::int64_t>(ctx.block_idx().x) * kSlab;
    const std::int64_t len = std::min<std::int64_t>(kSlab, n - base);
    for (std::int64_t i0 = 0; i0 < len; i0 += simt::kWarpSize) {
      const int cnt = static_cast<int>(
          std::min<std::int64_t>(simt::kWarpSize, len - i0));
      const auto pairs = pov.load_warp_partial(
          base + i0, cnt, SegPair<T>{}, ctx.stats());
      simt::WarpReg<T> vals{};
      for (int l = 0; l < cnt; ++l) vals[l] = pairs[l].value;
      outv.store_warp_partial(base + i0, cnt, vals, ctx.stats());
    }
  });
  result.breakdown.add("Unpack", t_unpack.seconds);

  result.payload_bytes = 2ull * static_cast<std::uint64_t>(n) * sizeof(T);
  result.seconds = dev.clock().now() - start;
  return result;
}

}  // namespace mgs::core
