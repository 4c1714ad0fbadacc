// Integration tests for Scan-SP: the full three-kernel single-GPU batch
// scan against the serial reference, across sizes, batch counts, kinds,
// operators and element types (parameterized sweeps).

#include <gtest/gtest.h>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace st = mgs::simt;
using mgs::baselines::reference_batch_scan;

namespace {

mc::ScanPlan paper_plan(int k = 4) {
  mc::ScanPlan plan = mc::derive_spl(mgs::sim::k80_spec(), 4).plan;
  plan.s13.k = k;
  return plan;
}

template <typename T, typename Op = mc::Plus<T>>
void check_scan_sp(std::int64_t n, std::int64_t g, mc::ScanKind kind, int k,
                   std::uint64_t seed) {
  st::Device dev(0, mgs::sim::k80_spec());
  const auto plan = [&] {
    auto p = paper_plan(k);
    return p;
  }();
  std::vector<T> data;
  if constexpr (std::is_same_v<T, float>) {
    // Small integral floats keep the scan exact.
    const auto ints = mgs::util::random_i32(static_cast<std::size_t>(n * g),
                                            seed, -4, 4);
    data.assign(ints.begin(), ints.end());
  } else {
    const auto ints = mgs::util::random_i32(static_cast<std::size_t>(n * g),
                                            seed);
    data.assign(ints.begin(), ints.end());
  }

  std::vector<T> out(data.size());
  const auto result = mc::scan_sp<T, Op>(dev, data, out, n, g, plan, kind);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_EQ(result.payload_bytes, 2ull * static_cast<std::uint64_t>(n) * g * sizeof(T));

  const auto want = reference_batch_scan<T, Op>(data, n, g, kind);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << "n=" << n << " g=" << g << " i=" << i;
  }
}

}  // namespace

TEST(ScanSp, SmallSingleProblemUsesDirectPath) {
  st::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan(4);
  const std::int64_t n = plan.s13.chunk();  // exactly one chunk -> direct
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 1);
  std::vector<int> out(data.size());
  const auto r = mc::scan_sp<int>(dev, data, out, n, 1, plan,
                                  mc::ScanKind::kInclusive);
  EXPECT_EQ(r.breakdown.get("Stage1"), 0.0);  // stages 1-2 skipped
  EXPECT_GT(r.breakdown.get("Stage3"), 0.0);
  int acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += data[static_cast<std::size_t>(i)];
    ASSERT_EQ(out[static_cast<std::size_t>(i)], acc);
  }
}

TEST(ScanSp, ThreeStageBreakdownPresent) {
  st::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan(2);
  const std::int64_t n = 1 << 16;
  const std::vector<int> in(static_cast<std::size_t>(n));
  std::vector<int> out(in.size());
  const auto r = mc::scan_sp<int>(dev, in, out, n, 1, plan,
                                  mc::ScanKind::kInclusive);
  EXPECT_GT(r.breakdown.get("Stage1"), 0.0);
  EXPECT_GT(r.breakdown.get("Stage2"), 0.0);
  EXPECT_GT(r.breakdown.get("Stage3"), 0.0);
  EXPECT_NEAR(r.breakdown.total(), r.seconds, 1e-12);
}

TEST(ScanSp, InPlaceScanWorks) {
  st::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan(2);
  const std::int64_t n = 1 << 14;
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 2);
  std::vector<int> buf = data;
  mc::scan_sp<int>(dev, buf, buf, n, 1, plan, mc::ScanKind::kInclusive);
  int acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += data[static_cast<std::size_t>(i)];
    ASSERT_EQ(buf[static_cast<std::size_t>(i)], acc);
  }
}

TEST(ScanSp, RejectsBadArguments) {
  st::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan(2);
  std::vector<int> buf(16);
  EXPECT_THROW(mc::scan_sp<int>(dev, buf, buf, 0, 1, plan,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_THROW(mc::scan_sp<int>(dev, buf, buf, 32, 1, plan,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);
  auto bad_plan = plan;
  bad_plan.s13.p = 3;  // not a power of two
  EXPECT_THROW(mc::scan_sp<int>(dev, buf, buf, 16, 1, bad_plan,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);
}

// ---- Parameterized correctness sweep ----------------------------------

struct SweepCase {
  std::int64_t n;
  std::int64_t g;
  mc::ScanKind kind;
  int k;
};

class ScanSpSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ScanSpSweep, MatchesReferenceInt32) {
  const auto c = GetParam();
  check_scan_sp<int>(c.n, c.g, c.kind, c.k, 42 + static_cast<std::uint64_t>(c.n));
}

TEST_P(ScanSpSweep, MatchesReferenceInt64) {
  const auto c = GetParam();
  check_scan_sp<std::int64_t>(c.n, c.g, c.kind, c.k, 7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScanSpSweep,
    ::testing::Values(
        // Power-of-two sizes, the paper's default world.
        SweepCase{1 << 12, 1, mc::ScanKind::kInclusive, 1},
        SweepCase{1 << 12, 1, mc::ScanKind::kExclusive, 1},
        SweepCase{1 << 15, 4, mc::ScanKind::kInclusive, 2},
        SweepCase{1 << 15, 4, mc::ScanKind::kExclusive, 2},
        SweepCase{1 << 13, 32, mc::ScanKind::kInclusive, 4},
        SweepCase{1 << 18, 1, mc::ScanKind::kInclusive, 8},
        // Non-power-of-two sizes (partial chunks and tiles).
        SweepCase{1000, 3, mc::ScanKind::kInclusive, 1},
        SweepCase{12345, 2, mc::ScanKind::kExclusive, 2},
        SweepCase{(1 << 14) + 1, 1, mc::ScanKind::kInclusive, 2},
        SweepCase{(1 << 14) - 1, 5, mc::ScanKind::kExclusive, 4},
        // Tiny inputs.
        SweepCase{1, 1, mc::ScanKind::kInclusive, 1},
        SweepCase{1, 7, mc::ScanKind::kExclusive, 1},
        SweepCase{33, 2, mc::ScanKind::kInclusive, 1},
        // Warp-boundary and chunk-boundary edges.
        SweepCase{31, 1, mc::ScanKind::kInclusive, 1},
        SweepCase{32, 1, mc::ScanKind::kExclusive, 1},
        SweepCase{127, 3, mc::ScanKind::kInclusive, 1},
        SweepCase{129, 3, mc::ScanKind::kExclusive, 1},
        // One element past a chunk (direct path -> three-kernel path).
        SweepCase{1024 + 1, 1, mc::ScanKind::kInclusive, 1},
        SweepCase{4096 + 1, 2, mc::ScanKind::kExclusive, 4},
        // Wider batch dimension.
        SweepCase{512, 64, mc::ScanKind::kInclusive, 1},
        SweepCase{100, 100, mc::ScanKind::kExclusive, 1}));

TEST(ScanSp, FloatPlusMatchesReference) {
  check_scan_sp<float>(1 << 13, 2, mc::ScanKind::kInclusive, 2, 9);
}

TEST(ScanSp, DoublePlusMatchesReference) {
  check_scan_sp<double>(1 << 13, 2, mc::ScanKind::kExclusive, 2, 12);
}

TEST(ScanSp, UnsignedWrapsModulo) {
  // Unsigned sums wrap mod 2^32 on both sides; still bit-exact.
  st::Device dev(0, mgs::sim::k80_spec());
  const auto plan = paper_plan(2);
  const std::int64_t n = 1 << 15;
  std::vector<std::uint32_t> data(static_cast<std::size_t>(n),
                                  0xC000'0000u);  // forces wraparound
  std::vector<std::uint32_t> out(data.size());
  mc::scan_sp<std::uint32_t>(dev, data, out, n, 1, plan,
                             mc::ScanKind::kInclusive);
  std::uint32_t acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += data[static_cast<std::size_t>(i)];
    ASSERT_EQ(out[static_cast<std::size_t>(i)], acc);
  }
}

TEST(ScanSp, WiderElementsUseMoreSharedMemory) {
  // The plan's shared-memory estimate scales with the element size (one
  // partial per warp), still far under the 7168-byte Premise-1 budget.
  const auto plan = paper_plan(1);
  EXPECT_EQ(plan.s13.smem_bytes(4), plan.s13.warps() * 4);
  EXPECT_EQ(plan.s13.smem_bytes(8), plan.s13.warps() * 8);
  EXPECT_LT(plan.s13.smem_bytes(8), 7168);
}

TEST(ScanSp, MaxOperatorMatchesReference) {
  check_scan_sp<int, mc::Max<int>>(1 << 14, 3, mc::ScanKind::kInclusive, 2, 10);
}

TEST(ScanSp, MinOperatorMatchesReference) {
  check_scan_sp<int, mc::Min<int>>(1 << 13, 2, mc::ScanKind::kInclusive, 1, 11);
}

TEST(ScanSp, LargerKIsFewerChunks) {
  st::Device dev(0, mgs::sim::k80_spec());
  const std::int64_t n = 1 << 20;
  const std::vector<int> in(static_cast<std::size_t>(n));
  std::vector<int> out(in.size());
  auto p1 = paper_plan(1);
  auto p8 = paper_plan(8);
  const auto lay1 = mc::make_layout(n, 1, p1.s13);
  const auto lay8 = mc::make_layout(n, 1, p8.s13);
  EXPECT_EQ(lay1.bx, 8 * lay8.bx);
  // Both still produce correct results.
  mc::scan_sp<int>(dev, in, out, n, 1, p1, mc::ScanKind::kInclusive);
  mc::scan_sp<int>(dev, in, out, n, 1, p8, mc::ScanKind::kInclusive);
}
