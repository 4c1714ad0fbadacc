#pragma once
/// \file segmented.hpp
/// Segmented scan extension (the operator-extension approach the paper
/// describes for the CUB comparison in Section 5.1: "modifying the
/// datatype and extending the sum operator with an additional condition").
///
/// Values travel with their segment-head flags as pairs and are scanned
/// with the flag-respecting operator. This header holds the pair, the
/// operator and their plan/span identity; core::SegmentedScan
/// (segmented_context.hpp) is the segmented scan, and states its cost
/// rule.

#include <optional>

#include "mgs/core/dtype.hpp"

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

}  // namespace mgs::core
