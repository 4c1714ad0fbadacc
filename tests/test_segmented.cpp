// Tests for the segmented-scan extension (operator extension over packed
// value/flag pairs, Section 5.1's CUB-segmented discussion).

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/segmented_context.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
using mgs::baselines::reference_segmented_scan;

namespace {

/// Every `period`-th element starts a segment (plus a few random heads).
std::vector<int> make_flags(std::int64_t n, std::int64_t period,
                            std::uint64_t seed) {
  std::vector<int> flags(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; i += period) {
    flags[static_cast<std::size_t>(i)] = 1;
  }
  mgs::util::SplitMix64 rng(seed);
  for (int j = 0; j < n / 50 + 1; ++j) {
    flags[static_cast<std::size_t>(rng.next_below(
        static_cast<std::uint64_t>(n)))] = 1;
  }
  return flags;
}

}  // namespace

TEST(SegOp, AssociativityOnRandomTriples) {
  using P = mc::SegPair<int>;
  mc::SegOp<int, mc::Plus<int>> op;
  mgs::util::SplitMix64 rng(3);
  for (int t = 0; t < 1000; ++t) {
    const P a{static_cast<int>(rng.next_below(100)), static_cast<int>(rng.next_below(2))};
    const P b{static_cast<int>(rng.next_below(100)), static_cast<int>(rng.next_below(2))};
    const P c{static_cast<int>(rng.next_below(100)), static_cast<int>(rng.next_below(2))};
    EXPECT_EQ(op(op(a, b), c), op(a, op(b, c)));
  }
}

TEST(SegOp, IdentityIsNeutral) {
  using P = mc::SegPair<int>;
  mc::SegOp<int, mc::Plus<int>> op;
  const P id = mc::SegOp<int, mc::Plus<int>>::identity();
  const P x{42, 1};
  EXPECT_EQ(op(id, x), x);
  const P y{7, 0};
  EXPECT_EQ(op(id, y), y);
}

struct SegCase {
  std::int64_t n;
  std::int64_t period;
};

class SegmentedSweep : public ::testing::TestWithParam<SegCase> {};

TEST_P(SegmentedSweep, MatchesReference) {
  const auto c = GetParam();
  auto cluster = mgs::topo::single_gpu_cluster(mgs::sim::k80_spec());
  mc::ScanContext ctx(cluster);
  const auto values = mgs::util::random_i32(static_cast<std::size_t>(c.n),
                                            static_cast<std::uint64_t>(c.n));
  const auto flags = make_flags(c.n, c.period, 11);

  mc::SegmentedScan<int> seg(ctx, "Scan-SP");
  seg.prepare(c.n);
  std::vector<int> out(values.size());
  const auto r = seg.run(values, flags, out);
  EXPECT_GT(r.seconds, 0.0);

  const auto want = reference_segmented_scan<int>(values, flags);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SegmentedSweep,
                         ::testing::Values(SegCase{1 << 12, 64},
                                           SegCase{1 << 15, 1000},
                                           SegCase{1 << 16, 7},
                                           SegCase{12345, 100},
                                           SegCase{100, 1}));

TEST(Segmented, FlagOverheadCostsTime) {
  // The paper's observation about Thrust: carrying a flag array reduces
  // performance. The segmented scan must be measurably slower than the
  // plain scan of the same values on the same context.
  auto cluster = mgs::topo::single_gpu_cluster(mgs::sim::k80_spec());
  mc::ScanContext ctx(cluster);
  const std::int64_t n = 1 << 18;
  const std::vector<int> values(static_cast<std::size_t>(n));
  const std::vector<int> flags(values.size());
  std::vector<int> out(values.size());

  mc::SegmentedScan<int> seg(ctx, "Scan-SP");
  seg.prepare(n);
  const auto segmented = seg.run(values, flags, out);
  auto plain = mc::make_executor("Scan-SP", ctx);
  plain->prepare(n, 1);
  const auto scanned = plain->run(values, out, mc::ScanKind::kInclusive);
  EXPECT_GT(segmented.seconds, 1.5 * scanned.seconds);
}

TEST(Segmented, OutOverlappingFlagsMatchesDisjointOut) {
  // `out` one element into `flags`: the unpack writes out[i-1] before it
  // handles element i, so the heads must come from the packed copy, not
  // from the caller's flags.
  constexpr std::int64_t n = 1 << 12;
  constexpr std::int64_t g = 2;
  const auto elems = static_cast<std::size_t>(n * g);
  const auto values = mgs::util::random_i32(elems, 5);
  const auto flags = make_flags(n * g, 97, 13);
  auto cluster = mgs::topo::single_gpu_cluster(mgs::sim::k80_spec());
  mc::ScanContext ctx(cluster);
  mc::SegmentedScan<int> seg(ctx, "Scan-SP");
  seg.prepare(n, g);
  for (const auto kind : {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
    std::vector<int> buf(elems + 1);
    std::copy(flags.begin(), flags.end(), buf.begin());
    std::vector<int> want(elems);
    seg.run(values, std::span<const int>(buf).first(elems), want, kind);
    seg.run(values, std::span<const int>(buf).first(elems),
            std::span<int>(buf).subspan(1), kind);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), buf.begin() + 1))
        << mc::to_string(kind);
  }
}

namespace {

/// SegmentedScan over Scan-SP, Scan-MPS sync and Scan-MPS overlap against
/// the serial reference, applied one sequence at a time. Integral
/// operators are association-free, so the outputs must match bit for bit.
template <typename T, typename Op>
void expect_executors_match_reference() {
  constexpr std::int64_t n = 1 << 12;
  constexpr std::int64_t g = 8;
  const auto seed = mgs::util::random_i32(static_cast<std::size_t>(n * g), 7);
  const std::vector<T> values(seed.begin(), seed.end());
  std::vector<T> flags(values.size());
  for (std::size_t i = 0; i < flags.size(); ++i) {
    flags[i] = (seed[i] & 63) == 0 ? T{1} : T{0};
  }

  std::vector<T> expected;
  for (std::int64_t j = 0; j < g; ++j) {
    const auto rows = [&](const std::vector<T>& v) {
      return std::span<const T>(v).subspan(static_cast<std::size_t>(j * n),
                                           static_cast<std::size_t>(n));
    };
    const auto seq =
        reference_segmented_scan<T, Op>(rows(values), rows(flags));
    expected.insert(expected.end(), seq.begin(), seq.end());
  }

  auto cluster = mgs::topo::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  struct Variant {
    const char* executor;
    mc::ExecutorParams params;
  };
  const Variant variants[] = {
      {"Scan-SP", {}},
      {"Scan-MPS", {.w = 4, .pipeline = mc::PipelineMode::kSync}},
      {"Scan-MPS",
       {.w = 4, .pipeline = mc::PipelineMode::kOverlap, .waves = 4}},
  };
  for (const auto& v : variants) {
    mc::SegmentedScan<T, Op> seg(ctx, v.executor, v.params);
    seg.prepare(n, g);
    std::vector<T> got(values.size());
    seg.run(values, flags, got);
    EXPECT_EQ(got, expected) << v.executor << " pipeline "
                             << static_cast<int>(v.params.pipeline);
  }
}

}  // namespace

TEST(SegmentedScan, ExecutorsMatchReferenceI32Plus) {
  expect_executors_match_reference<std::int32_t, mc::Plus<std::int32_t>>();
}

TEST(SegmentedScan, ExecutorsMatchReferenceI64Min) {
  expect_executors_match_reference<std::int64_t, mc::Min<std::int64_t>>();
}
