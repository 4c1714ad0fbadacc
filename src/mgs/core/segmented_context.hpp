#pragma once
/// \file segmented_context.hpp
/// Segmented scan through the unified ScanContext/ScanExecutor path. The
/// free function segmented_scan_sp (segmented.hpp) re-derives nothing but
/// also amortizes nothing; SegmentedScan packs (value, flag) pairs and
/// drives a proposal executor over them, so segmented traffic gets the
/// same plan-cache hits, workspace reuse, overlap pipelining and
/// degraded-mode re-planning as the plain scans -- on any of the five
/// proposals.
///
/// The executors over SegPair<T> come from make_segmented_executor, whose
/// dense (DType, OpTag) tables are built once in segmented_executor.cpp;
/// the packed pairs travel through the erased run() as TypedSpans with
/// the segmented flag set, and the plan cache keys them as (scalar dtype,
/// segmented=true), doubling the element bytes the plan budgets for.
///
/// Exclusive segmented scans are offered here, unlike the free function:
/// the inner scan always runs inclusively (a flag-restarting operator has
/// no operator-generic exclusive form), and exclusivity is applied during
/// unpack -- a segment head yields Op::identity(), everything else the
/// inclusive value of its left neighbor. Host-side pack/unpack is input
/// preparation, like the data the paper takes as GPU-resident, and is not
/// charged to the simulated time.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mgs/core/executor_registry.hpp"
#include "mgs/core/segmented.hpp"

namespace mgs::core {

/// One of the five proposals (by registry name) over SegPair elements of
/// the (params.dtype, params.op) cell with the flag-respecting operator.
/// Throws util::Error for an unknown name.
std::unique_ptr<ScanExecutor> make_segmented_executor(
    const std::string& name, ScanContext& ctx,
    const ExecutorParams& params = {});

template <typename T, typename Op = Plus<T>>
class SegmentedScan {
 public:
  static_assert(dtype_of_v<T>.has_value() && op_tag_of_v<Op>.has_value(),
                "SegmentedScan: (T, Op) outside the DType x OpTag matrix");

  /// Wrap one of the five proposals (by registry name) over SegPair<T>
  /// with the flag-respecting operator; params.dtype/op are set from
  /// (T, Op).
  explicit SegmentedScan(ScanContext& ctx,
                         const std::string& executor = "Scan-SP",
                         const ExecutorParams& params = {})
      : ex_(make_segmented_executor(executor, ctx, cell(params))) {}

  /// Plan + packing buffers for a batch of G independent sequences of N
  /// elements each (G = 1 is the single-sequence case). Every sequence
  /// restarts the scan, so a batch rides the multi-problem executors
  /// unchanged -- and gives the overlap pipeline waves to overlap.
  void prepare(std::int64_t n, std::int64_t g = 1) {
    ex_->prepare(n, g);
    packed_.resize(static_cast<std::size_t>(n * g));
    packed_out_.resize(static_cast<std::size_t>(n * g));
  }

  /// Scan `values` with segment boundaries from `flags` (flags[i] != 0
  /// marks element i as a segment head; the first element of each
  /// sequence is implicitly one).
  RunResult run(std::span<const T> values, std::span<const T> flags,
                std::span<T> out, ScanKind kind = ScanKind::kInclusive) {
    const std::int64_t n = ex_->prepared_n();
    const std::int64_t total = n * ex_->prepared_g();
    MGS_REQUIRE(total > 0, "SegmentedScan::run before prepare()");
    MGS_REQUIRE(static_cast<std::int64_t>(values.size()) >= total &&
                    static_cast<std::int64_t>(flags.size()) >= total &&
                    static_cast<std::int64_t>(out.size()) >= total,
                "SegmentedScan::run: spans must hold N*G elements");
    for (std::int64_t i = 0; i < total; ++i) {
      packed_[static_cast<std::size_t>(i)] =
          SegPair<T>{values[static_cast<std::size_t>(i)],
                     flags[static_cast<std::size_t>(i)]};
    }
    RunResult r = ex_->run(
        ConstTypedSpan::of(std::span<const SegPair<T>>(packed_)),
        TypedSpan::of(std::span<SegPair<T>>(packed_out_)),
        ScanKind::kInclusive);
    if (kind == ScanKind::kInclusive) {
      for (std::int64_t i = 0; i < total; ++i) {
        out[static_cast<std::size_t>(i)] =
            packed_out_[static_cast<std::size_t>(i)].value;
      }
    } else {
      for (std::int64_t i = 0; i < total; ++i) {
        const bool head =
            i % n == 0 || flags[static_cast<std::size_t>(i)] != T{0};
        out[static_cast<std::size_t>(i)] =
            head ? Op::identity()
                 : packed_out_[static_cast<std::size_t>(i) - 1].value;
      }
    }
    return r;
  }

  /// The wrapped executor, for describe()/plan inspection.
  ScanExecutor& executor() { return *ex_; }
  const ScanExecutor& executor() const { return *ex_; }

 private:
  static ExecutorParams cell(ExecutorParams p) {
    p.dtype = *dtype_of_v<T>;
    p.op = *op_tag_of_v<Op>;
    return p;
  }

  std::unique_ptr<ScanExecutor> ex_;
  std::vector<SegPair<T>> packed_;
  std::vector<SegPair<T>> packed_out_;
};

}  // namespace mgs::core
