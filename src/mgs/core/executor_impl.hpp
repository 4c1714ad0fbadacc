#pragma once
/// \file executor_impl.hpp
/// The typed side of the erasure boundary (placed_executor.hpp):
/// TypedPath<T, Op>, the DataPath of one (element type, operator) cell --
/// the only executor code that touches element values -- and the table
/// that maps a runtime (DType, OpTag) pair to one. Only the two table
/// TUs include it: executor.cpp over the scalar matrix,
/// segmented_executor.cpp over its packed SegPair elements.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "mgs/core/placed_executor.hpp"
#include "mgs/core/scan_multinode.hpp"
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

  void release() override {
    ins_.clear();
    outs_.clear();
  }

  void lease(ScanContext& ctx, std::size_t i, int device,
             std::int64_t elems) override {
    simt::Device& dev = ctx.cluster().device(device);
    if (i == ins_.size()) {
      ins_.emplace_back();
      outs_.emplace_back();
    }
    ins_[i] = ctx.workspace().template acquire<T>(dev, elems);
    outs_[i] = ctx.workspace().template acquire<T>(dev, elems);
  }

  RunResult scan_sp(const Call& c, int device) override {
    return staged(c, 1, true, [&](std::vector<GpuBatch<T>>& b) {
      return core::scan_sp<T, Op>(c.ctx.cluster().device(device), b[0].in,
                                  b[0].out, c.n, c.g, c.plan, c.kind, Op{},
                                  &c.ctx.workspace());
    });
  }

  RunResult scan_mps(const Call& c, const std::vector<int>& gpus,
                     MpsProgress* ck, bool stage_in) override {
    return staged(c, gpus.size(), stage_in, [&](std::vector<GpuBatch<T>>& b) {
      topo::Cluster& cluster = c.ctx.cluster();
      if (ck == nullptr) {
        return scan_mps_direct<T, Op>(cluster, gpus, b, c.n, c.g, c.plan,
                                      c.kind, Op{}, &c.ctx.workspace());
      }
      return core::scan_mps<T, Op>(cluster, gpus, b, c.n, c.g, c.plan, c.kind,
                                   Op{}, &c.ctx.workspace(),
                                   static_cast<MpsCheckpoint<T>*>(ck));
    });
  }

  RunResult scan_mppc(const Call& c, const MppcPartition& part) override {
    const auto in = c.in.template as<T>();
    const auto out = c.out.template as<T>();
    const auto rows = [&](auto span, std::size_t grp) {
      return span.subspan(static_cast<std::size_t>(part.g_offset[grp] * c.n),
                          static_cast<std::size_t>(part.g_of_group[grp] * c.n));
    };
    std::vector<std::vector<GpuBatch<T>>> batches;
    for (std::size_t grp = 0, slot = 0; grp < part.groups.size(); ++grp) {
      batches.push_back(slots(slot, part.groups[grp].size()));
      slot += part.groups[grp].size();
      scatter_batch<T>(rows(in, grp), batches.back(), c.n,
                       part.g_of_group[grp]);
    }
    RunResult r = core::scan_mppc<T, Op>(c.ctx.cluster(), part, batches, c.n,
                                         c.plan, c.kind, Op{},
                                         &c.ctx.workspace());
    for (std::size_t grp = 0; grp < batches.size(); ++grp) {
      gather_batch<T>(batches[grp], c.n, part.g_of_group[grp], rows(out, grp));
    }
    return r;
  }

  RunResult scan_multinode(const Call& c, msg::Communicator& comm) override {
    return staged(c, static_cast<std::size_t>(comm.size()), true,
                  [&](std::vector<GpuBatch<T>>& b) {
                    return scan_mps_multinode<T, Op>(comm, b, c.n, c.g, c.plan,
                                                     c.kind, Op{},
                                                     &c.ctx.workspace());
                  });
  }

  std::unique_ptr<MpsProgress> checkpoint() const override {
    return std::make_unique<MpsCheckpoint<T>>();
  }

  void move_portion(ScanContext& ctx, MpsProgress& ck, ConstTypedSpan in,
                    int i, int device, std::int64_t n, std::int64_t g, int w,
                    std::int64_t aux_elems) override {
    const auto ii = static_cast<std::size_t>(i);
    const std::int64_t n_local = n / w;
    lease(ctx, ii, device, n_local * g);
    // Refill this portion's input in scatter_batch's layout.
    const auto src = in.template as<T>();
    auto dst = ins_[ii].host_span();
    for (std::int64_t gg = 0; gg < g; ++gg) {
      const auto row = src.begin() + (gg * n + i * n_local);
      std::copy(row, row + n_local, dst.begin() + gg * n_local);
    }
    auto& c = static_cast<MpsCheckpoint<T>&>(ck);
    if (!c.active) return;
    simt::Device& dev = ctx.cluster().device(device);
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
  /// Batches over `count` slots starting at `first`.
  std::vector<GpuBatch<T>> slots(std::size_t first, std::size_t count) {
    std::vector<GpuBatch<T>> b;
    for (std::size_t i = first; i < first + count; ++i) {
      b.push_back(GpuBatch<T>{ins_[i].buffer(), outs_[i].buffer()});
    }
    return b;
  }

  /// Stage the host input into the first `count` slots (unless
  /// `stage_in` is off), run `scan` over them, gather the output.
  template <typename Scan>
  RunResult staged(const Call& c, std::size_t count, bool stage_in,
                   const Scan& scan) {
    std::vector<GpuBatch<T>> b = slots(0, count);
    if (stage_in) scatter_batch<T>(c.in.template as<T>(), b, c.n, c.g);
    RunResult r = scan(b);
    gather_batch<T>(b, c.n, c.g, c.out.template as<T>());
    return r;
  }

  std::vector<WorkspacePool::Handle<T>> ins_;
  std::vector<WorkspacePool::Handle<T>> outs_;
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
