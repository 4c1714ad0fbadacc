#pragma once
/// \file executor_impl.hpp
/// The typed side of the erasure boundary (placed_executor.hpp):
/// TypedPath<T, Op>, the DataPath of one (element type, operator) cell --
/// the only executor code that touches element values -- and the table
/// that maps a runtime (DType, OpTag) pair to one. Only the two table
/// TUs include it: executor.cpp over the scalar matrix,
/// segmented_executor.cpp over its packed SegPair elements.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mgs/core/placed_executor.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/segmented.hpp"

namespace mgs::core::detail {

/// The data path of elements T under operator Op.
template <typename T, typename Op>
class TypedPath final : public DataPath {
 public:
  TypedPath()
      : DataPath(PlanTypeOf<T>::dtype, op_tag_of_v<Op>.value_or(OpTag::kPlus),
                 PlanTypeOf<T>::segmented, sizeof(T)) {}

  ConstTypedSpan snapshot(ConstTypedSpan in) override {
    const auto src = in.template as<T>();
    snapshot_.assign(src.begin(), src.end());
    return ConstTypedSpan::of(std::span<const T>(snapshot_));
  }

  RunResult scan_sp(const Call& c, int device) override {
    return core::scan_sp<T, Op>(c.ctx.cluster().device(device),
                                c.in.template as<T>(), c.out.template as<T>(),
                                c.n, c.g, c.plan, c.kind, Op{},
                                &c.ctx.workspace());
  }

  RunResult scan_mps(const Call& c, const std::vector<int>& gpus,
                     MpsGather gather, MpsProgress& ck) override {
    return core::scan_mps<T, Op>(c.ctx.cluster(), gpus, c.in.template as<T>(),
                                 c.out.template as<T>(), c.n, c.g, c.plan,
                                 c.kind, Op{}, gather, &c.ctx.workspace(),
                                 &static_cast<MpsCheckpoint<T>&>(ck));
  }

  RunResult scan_mppc(const Call& c, const MppcPartition& part,
                      MpsProgress& ck) override {
    return core::scan_mppc<T, Op>(c.ctx.cluster(), part, c.in.template as<T>(),
                                  c.out.template as<T>(), c.n, c.plan, c.kind,
                                  Op{}, &c.ctx.workspace(),
                                  &static_cast<MpsCheckpoint<T>&>(ck));
  }

  std::unique_ptr<MpsProgress> checkpoint() const override {
    return std::make_unique<MpsCheckpoint<T>>();
  }

  void move_portion(ScanContext& ctx, MpsProgress& ck, int i, int device,
                    std::int64_t aux_elems) override {
    auto& c = static_cast<MpsCheckpoint<T>&>(ck);
    if (!c.active) return;
    simt::Device& dev = ctx.cluster().device(device);
    const auto ii = static_cast<std::size_t>(i);
    c.aux_local[ii] = acquire_workspace<T>(&ctx.workspace(), dev, aux_elems);
    c.prefix_local[ii] =
        acquire_workspace<T>(&ctx.workspace(), dev, aux_elems);
  }

  void move_master(ScanContext& ctx, MpsProgress& ck, int device,
                   std::int64_t aux_all_elems, std::int64_t g) override {
    auto& c = static_cast<MpsCheckpoint<T>&>(ck);
    simt::Device& dev = ctx.cluster().device(device);
    c.aux_all = acquire_workspace<T>(&ctx.workspace(), dev, aux_all_elems);
    if (c.carry.valid()) {
      c.carry = acquire_workspace<T>(&ctx.workspace(), dev, g);
    }
  }

 private:
  std::vector<T> snapshot_;  ///< reused across calls
};

/// One (DType, OpTag) -> data-path factory dispatch table. The table
/// *variables* are built only in executor.cpp and segmented_executor.cpp,
/// never as inline header constants.
using PathFactory = std::unique_ptr<DataPath> (*)();

struct FactoryTable {
  PathFactory fn[kNumDTypes][kNumOpTags] = {};
  /// Mirrors fn: set exactly where a factory was installed. The density
  /// check reads this instead of comparing fn against nullptr -- under
  /// -fsanitize=address GCC refuses to constant-fold comparisons with an
  /// instrumented function's address, so the bool mirror keeps
  /// table_is_dense usable in static_asserts on every build flavor.
  bool set[kNumDTypes][kNumOpTags] = {};

  PathFactory at(DType d, OpTag o) const {
    return fn[static_cast<int>(d)][static_cast<int>(o)];
  }
};

/// Every cell filled? static_asserted over each table where it is built,
/// so a new DType/OpTag enumerator that misses a maker row breaks the
/// build rather than null-dispatching at runtime.
constexpr bool table_is_dense(const FactoryTable& t) {
  for (int d = 0; d < kNumDTypes; ++d) {
    for (int o = 0; o < kNumOpTags; ++o) {
      if (!t.set[d][o]) return false;
    }
  }
  return true;
}

/// The factory a table cell stores: the path of (T, Op), or of the packed
/// (SegPair<T>, SegOp<T, Op>) pairs for the segmented table. Taking its
/// address emits TypedPath's vtable, which instantiates every virtual
/// member, so a member that fails to compile for some cell breaks the
/// build.
template <typename T, typename Op, bool Segmented>
std::unique_ptr<DataPath> make_path() {
  if constexpr (Segmented) {
    return std::make_unique<TypedPath<SegPair<T>, SegOp<T, Op>>>();
  } else {
    return std::make_unique<TypedPath<T, Op>>();
  }
}

/// Fill one dtype row of a table with the three operator columns.
template <bool Segmented, typename T>
constexpr void fill_row(FactoryTable& t) {
  const int d = static_cast<int>(*dtype_of_v<T>);
  t.fn[d][static_cast<int>(OpTag::kPlus)] = &make_path<T, Plus<T>, Segmented>;
  t.fn[d][static_cast<int>(OpTag::kMax)] = &make_path<T, Max<T>, Segmented>;
  t.fn[d][static_cast<int>(OpTag::kMin)] = &make_path<T, Min<T>, Segmented>;
  for (const OpTag o : {OpTag::kPlus, OpTag::kMax, OpTag::kMin}) {
    t.set[d][static_cast<int>(o)] = true;
  }
}

/// The full 5 x 3 table. Instantiates the path over the whole matrix --
/// call only from the two table TUs.
template <bool Segmented>
constexpr FactoryTable make_table() {
  FactoryTable t;
  fill_row<Segmented, std::int32_t>(t);
  fill_row<Segmented, std::int64_t>(t);
  fill_row<Segmented, std::uint32_t>(t);
  fill_row<Segmented, float>(t);
  fill_row<Segmented, double>(t);
  return t;
}

}  // namespace mgs::core::detail
