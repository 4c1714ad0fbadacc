#pragma once
/// \file rows.hpp
/// The caller's G problems of N elements, as every scan entry takes them:
/// size and aliasing checks shared by scan_sp, scan_mps, scan_mppc and the
/// executors. The tile bodies read each element before they write its
/// output (skeleton.hpp), so `out` may be `in` itself; an `out` that
/// shares only part of `in`'s memory would be read after it was written.

#include <cstddef>
#include <cstdint>
#include <span>

#include "mgs/util/check.hpp"

namespace mgs::core::detail {

/// Whether the first `bytes` of two host ranges share memory.
inline bool overlaps(const void* a, const void* b, std::size_t bytes) {
  const auto x = reinterpret_cast<std::uintptr_t>(a);
  const auto y = reinterpret_cast<std::uintptr_t>(b);
  return x < y + bytes && y < x + bytes;
}

/// Both spans hold N*G elements, and `out` is either `in` itself (an
/// in-place scan) or shares none of its memory.
template <typename T>
void require_rows(std::span<const T> in, std::span<const T> out,
                  std::int64_t elems) {
  MGS_REQUIRE(static_cast<std::int64_t>(in.size()) >= elems &&
                  static_cast<std::int64_t>(out.size()) >= elems,
              "scan: spans must hold N*G elements");
  MGS_REQUIRE(in.data() == out.data() ||
                  !overlaps(in.data(), out.data(),
                            static_cast<std::size_t>(elems) * sizeof(T)),
              "scan: out must be in itself or not overlap it");
}

}  // namespace mgs::core::detail
