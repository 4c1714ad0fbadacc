// Tests for the segmented-scan extension (operator extension over packed
// value/flag pairs, Section 5.1's CUB-segmented discussion).

#include <gtest/gtest.h>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/segmented.hpp"
#include "mgs/core/segmented_context.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
using mgs::baselines::reference_segmented_scan;

namespace {

mc::ScanPlan paper_plan(int k = 2) {
  auto plan = mc::derive_spl(mgs::sim::k80_spec(), 4).plan;
  plan.s13.k = k;
  return plan;
}

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
  mgs::simt::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan();
  const auto values = mgs::util::random_i32(static_cast<std::size_t>(c.n),
                                            static_cast<std::uint64_t>(c.n));
  const auto flags = make_flags(c.n, c.period, 11);

  auto in = dev.alloc<int>(c.n);
  auto fl = dev.alloc<int>(c.n);
  auto out = dev.alloc<int>(c.n);
  std::copy(values.begin(), values.end(), in.host_span().begin());
  std::copy(flags.begin(), flags.end(), fl.host_span().begin());

  const auto r = mc::segmented_scan_sp<int>(dev, in, fl, out, c.n, plan);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.breakdown.get("Pack"), 0.0);
  EXPECT_GT(r.breakdown.get("Unpack"), 0.0);

  std::vector<int> vflags(flags.begin(), flags.end());
  const auto want = reference_segmented_scan<int>(values, vflags);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out.host_span()[i], want[i]) << "i=" << i;
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
  // plain scan of the same values.
  mgs::simt::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan();
  const std::int64_t n = 1 << 18;
  auto in = dev.alloc<int>(n);
  auto fl = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);

  const auto seg = mc::segmented_scan_sp<int>(dev, in, fl, out, n, plan);
  const auto plain =
      mc::scan_sp<int>(dev, in, out, n, 1, plan, mc::ScanKind::kInclusive);
  EXPECT_GT(seg.seconds, 1.5 * plain.seconds);
}

namespace {

/// SegmentedScan over Scan-SP, Scan-MPS sync and Scan-MPS overlap against
/// G sequential calls of the free per-sequence segmented_scan_sp. Integral
/// operators are association-free, so the outputs must match bit for bit.
template <typename T, typename Op>
void expect_executors_match_free_path() {
  constexpr std::int64_t n = 1 << 12;
  constexpr std::int64_t g = 8;
  const auto seed = mgs::util::random_i32(static_cast<std::size_t>(n * g), 7);
  const std::vector<T> values(seed.begin(), seed.end());
  std::vector<T> flags(values.size());
  for (std::size_t i = 0; i < flags.size(); ++i) {
    flags[i] = (seed[i] & 63) == 0 ? T{1} : T{0};
  }

  std::vector<T> expected(values.size());
  mgs::simt::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan();
  auto in = dev.alloc<T>(n);
  auto fl = dev.alloc<T>(n);
  auto out = dev.alloc<T>(n);
  for (std::int64_t j = 0; j < g; ++j) {
    const auto base = static_cast<std::ptrdiff_t>(j * n);
    std::copy(values.begin() + base, values.begin() + base + n,
              in.host_span().begin());
    std::copy(flags.begin() + base, flags.begin() + base + n,
              fl.host_span().begin());
    mc::segmented_scan_sp<T, Op>(dev, in, fl, out, n, plan);
    std::copy(out.host_span().begin(), out.host_span().begin() + n,
              expected.begin() + base);
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

TEST(SegmentedScan, ExecutorsMatchFreePathI32Plus) {
  expect_executors_match_free_path<std::int32_t, mc::Plus<std::int32_t>>();
}

TEST(SegmentedScan, ExecutorsMatchFreePathI64Min) {
  expect_executors_match_free_path<std::int64_t, mc::Min<std::int64_t>>();
}
