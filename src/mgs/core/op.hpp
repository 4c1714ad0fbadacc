#pragma once
/// \file op.hpp
/// Scan operators. The paper uses integer addition throughout; the library
/// is generic over any associative operator with an identity (the skeleton
/// relies on identity-filled lanes being neutral for partial tiles).
///
/// Integer plus wraps modulo 2^bits, signed types included (computed in
/// the unsigned type), so it is exactly associative and any grouping of a
/// sum gives the same bits. An operator that has this property on its
/// value type says so with `static constexpr bool exact = true`; the tile
/// bodies then run the plain serial recurrence instead of replaying the
/// warp's operation order (skeleton.hpp). Plus, Max and Min set it for
/// integral T only: float sums round differently when regrouped, and
/// std::max/std::min expose operand order through signed zeros and NaNs.

#include <algorithm>
#include <limits>
#include <type_traits>

namespace mgs::core {

/// Whether element i of the output includes input element i.
enum class ScanKind { kInclusive, kExclusive };

inline const char* to_string(ScanKind k) {
  return k == ScanKind::kInclusive ? "inclusive" : "exclusive";
}

template <typename T>
struct Plus {
  using value_type = T;
  static constexpr bool exact = std::is_integral_v<T>;
  static constexpr T identity() { return T{}; }
  constexpr T operator()(T a, T b) const {
    if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      using U = std::make_unsigned_t<T>;
      return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
    } else {
      return a + b;
    }
  }
  static constexpr const char* name() { return "plus"; }
};

template <typename T>
struct Max {
  using value_type = T;
  static constexpr bool exact = std::is_integral_v<T>;
  static constexpr T identity() { return std::numeric_limits<T>::lowest(); }
  constexpr T operator()(T a, T b) const { return std::max(a, b); }
  static constexpr const char* name() { return "max"; }
};

template <typename T>
struct Min {
  using value_type = T;
  static constexpr bool exact = std::is_integral_v<T>;
  static constexpr T identity() { return std::numeric_limits<T>::max(); }
  constexpr T operator()(T a, T b) const { return std::min(a, b); }
  static constexpr const char* name() { return "min"; }
};

namespace detail {

/// Op::exact where the operator declares it, else false: an operator is
/// only trusted to be regroupable when it says so.
template <typename Op>
inline constexpr bool is_exact_v = false;
template <typename Op>
  requires requires { Op::exact; }
inline constexpr bool is_exact_v<Op> = Op::exact;

}  // namespace detail

}  // namespace mgs::core
