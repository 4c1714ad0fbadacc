#pragma once
/// \file dtype.hpp
/// The type-erasure boundary of the executor stack. The kernels and
/// skeletons are templates over (T, Op); the production surface
/// (ScanContext, ScanExecutor, plan cache, planner, benches) is erased
/// over a small closed matrix of element types (DType) and operators
/// (OpTag). Erasure happens exactly once, at executor construction /
/// prepare(): a dispatch table maps (DType, OpTag) to the fully templated
/// executor instantiation, after which the hot path runs the same
/// monomorphic kernels as a hand-instantiated call -- no per-element or
/// per-call virtual dispatch on the data type.
///
/// TypedSpan / ConstTypedSpan are the erased data carriers: a pointer +
/// DType (+ the segmented flag for packed value/flag pairs) + element
/// count. The typed std::span convenience overloads on
/// ScanExecutor wrap and unwrap them, so callers that know their type
/// statically never spell the erasure out.

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "mgs/core/op.hpp"
#include "mgs/util/check.hpp"

namespace mgs::core {

/// Element types the erased executor surface supports. Order is the
/// dispatch-table row order; keep kNumDTypes in sync.
enum class DType : std::uint8_t {
  kI32 = 0,
  kI64 = 1,
  kU32 = 2,
  kF32 = 3,
  kF64 = 4,
};

inline constexpr int kNumDTypes = 5;

/// Operators the erased surface supports (op.hpp's Plus/Max/Min). Order
/// is the dispatch-table column order; keep kNumOpTags in sync.
enum class OpTag : std::uint8_t {
  kPlus = 0,
  kMax = 1,
  kMin = 2,
};

inline constexpr int kNumOpTags = 3;

constexpr int dtype_bytes(DType d) {
  switch (d) {
    case DType::kI32:
    case DType::kU32:
    case DType::kF32:
      return 4;
    case DType::kI64:
    case DType::kF64:
      return 8;
  }
  return 0;  // unreachable; keeps -Wswitch quiet without a default case
}

constexpr const char* to_string(DType d) {
  switch (d) {
    case DType::kI32: return "i32";
    case DType::kI64: return "i64";
    case DType::kU32: return "u32";
    case DType::kF32: return "f32";
    case DType::kF64: return "f64";
  }
  return "?";
}

constexpr const char* to_string(OpTag o) {
  switch (o) {
    case OpTag::kPlus: return "plus";
    case OpTag::kMax: return "max";
    case OpTag::kMin: return "min";
  }
  return "?";
}

/// Parse the to_string spelling ("i32", "f64", ...); throws util::Error
/// on anything else (bench flags fail loudly on typos).
DType parse_dtype(const std::string& s);
OpTag parse_op(const std::string& s);

/// C++ type -> DType. Primary template is empty: types outside the matrix
/// have no DType (SegPair<T> is carried as its scalar DType with the
/// segmented flag set; see PlanTypeOf).
template <typename T>
struct DTypeOf {
  static constexpr std::optional<DType> value = std::nullopt;
};
template <>
struct DTypeOf<std::int32_t> {
  static constexpr std::optional<DType> value = DType::kI32;
};
template <>
struct DTypeOf<std::int64_t> {
  static constexpr std::optional<DType> value = DType::kI64;
};
template <>
struct DTypeOf<std::uint32_t> {
  static constexpr std::optional<DType> value = DType::kU32;
};
template <>
struct DTypeOf<float> {
  static constexpr std::optional<DType> value = DType::kF32;
};
template <>
struct DTypeOf<double> {
  static constexpr std::optional<DType> value = DType::kF64;
};

template <typename T>
inline constexpr std::optional<DType> dtype_of_v = DTypeOf<T>::value;

/// Operator functor -> OpTag. Primary template is empty: custom operators
/// have no erased carrier (kernel-level calls remain fully generic).
template <typename Op>
struct OpTagOf {
  static constexpr std::optional<OpTag> value = std::nullopt;
};
template <typename T>
struct OpTagOf<Plus<T>> {
  static constexpr std::optional<OpTag> value = OpTag::kPlus;
};
template <typename T>
struct OpTagOf<Max<T>> {
  static constexpr std::optional<OpTag> value = OpTag::kMax;
};
template <typename T>
struct OpTagOf<Min<T>> {
  static constexpr std::optional<OpTag> value = OpTag::kMin;
};

template <typename Op>
inline constexpr std::optional<OpTag> op_tag_of_v = OpTagOf<Op>::value;

/// Plan-cache identity of an element type: the scalar DType plus whether
/// the element is a flag-carrying pair (segmented scan packs value+flag,
/// doubling the element bytes the plan must budget for). The primary
/// template covers the scalar matrix; segmented.hpp specializes it for
/// SegPair<T>. Types outside both fail to compile, which is the intended
/// boundary: exotic element types use the free functions, not the
/// context/executor surface.
template <typename T>
struct PlanTypeOf {
  static_assert(dtype_of_v<T>.has_value(),
                "PlanTypeOf: element type outside the DType matrix (and not "
                "a SegPair); the ScanContext path cannot key a plan for it");
  static constexpr DType dtype = *dtype_of_v<T>;
  static constexpr bool segmented = false;
};

namespace detail {

/// "i32", or "i32/seg" for a span of packed segmented pairs.
inline std::string carrier_name(DType d, bool segmented) {
  return std::string(to_string(d)) + (segmented ? "/seg" : "");
}

/// Throws util::Error unless an erased span holding (dtype, segmented)
/// elements may be viewed as (want, want_segmented) elements, so a
/// wrongly-routed buffer can never be reinterpreted silently.
inline void require_carrier(const char* who, DType dtype, bool segmented,
                            DType want, bool want_segmented) {
  MGS_REQUIRE(dtype == want && segmented == want_segmented,
              std::string(who) + ": dtype mismatch (span holds " +
                  carrier_name(dtype, segmented) + ", caller wants " +
                  carrier_name(want, want_segmented) + ")");
}

}  // namespace detail

/// Mutable erased host range: pointer + element identity + element count.
/// The identity is PlanTypeOf's: a scalar DType, or the same DType with
/// `segmented` set for SegPair elements (segmented.hpp).
struct TypedSpan {
  void* data = nullptr;
  DType dtype = DType::kI32;
  std::int64_t count = 0;
  bool segmented = false;

  template <typename T>
  static TypedSpan of(std::span<T> s) {
    return TypedSpan{s.data(), PlanTypeOf<T>::dtype,
                     static_cast<std::int64_t>(s.size()),
                     PlanTypeOf<T>::segmented};
  }

  /// Recover the typed view; throws util::Error on an element mismatch.
  template <typename T>
  std::span<T> as() const {
    detail::require_carrier("TypedSpan", dtype, segmented,
                            PlanTypeOf<T>::dtype, PlanTypeOf<T>::segmented);
    return std::span<T>(static_cast<T*>(data),
                        static_cast<std::size_t>(count));
  }
};

/// Read-only erased host range.
struct ConstTypedSpan {
  const void* data = nullptr;
  DType dtype = DType::kI32;
  std::int64_t count = 0;
  bool segmented = false;

  template <typename T>
  static ConstTypedSpan of(std::span<const T> s) {
    return ConstTypedSpan{s.data(), PlanTypeOf<T>::dtype,
                          static_cast<std::int64_t>(s.size()),
                          PlanTypeOf<T>::segmented};
  }

  template <typename T>
  std::span<const T> as() const {
    detail::require_carrier("ConstTypedSpan", dtype, segmented,
                            PlanTypeOf<T>::dtype, PlanTypeOf<T>::segmented);
    return std::span<const T>(static_cast<const T*>(data),
                              static_cast<std::size_t>(count));
  }
};

}  // namespace mgs::core
