// Tests for the automatic (s, p, l, K) search (core/tuning.hpp) and
// the one-call convenience API (core/easy.hpp).

#include <gtest/gtest.h>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/easy.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace ms = mgs::sim;

TEST(Autotuner, CandidatesRespectPremises) {
  mc::Autotuner tuner(ms::k80_spec());
  const auto plans = tuner.candidates(1 << 18, 2);
  ASSERT_FALSE(plans.empty());
  for (const auto& plan : plans) {
    EXPECT_NO_THROW(plan.validate());
    EXPECT_GE(plan.s13.p, 4);  // int4 vector width
    EXPECT_LE(plan.s13.regs_per_thread(), ms::k80_spec().max_regs_per_thread);
    EXPECT_EQ(plan.s13.lx % 32, 0);
    EXPECT_LE(plan.s13.k, 256);
  }
}

TEST(Autotuner, FindsPlanNoWorseThanPaperDefault) {
  mc::Autotuner tuner(ms::k80_spec());
  const std::int64_t n = 1 << 18;
  const auto& best = tuner.tune(n, 2);

  // Measure the paper-default plan (P=8, Lx=128, K=4) the same way.
  auto default_plan = mc::derive_spl(ms::k80_spec(), 4).plan;
  default_plan.s13.k = 4;
  mgs::simt::Device dev(0, ms::k80_spec());
  const std::vector<int> in(static_cast<std::size_t>(n * 2));
  std::vector<int> out(in.size());
  const double default_seconds =
      mc::scan_sp<int>(dev, in, out, n, 2, default_plan,
                       mc::ScanKind::kInclusive)
          .seconds;
  EXPECT_LE(best.seconds, default_seconds * 1.0001);
}

TEST(Autotuner, CachesPerShape) {
  mc::Autotuner tuner(ms::k80_spec());
  EXPECT_EQ(tuner.cache_size(), 0u);
  const auto& a = tuner.tune(1 << 16, 1);
  EXPECT_EQ(tuner.cache_size(), 1u);
  const auto& b = tuner.tune(1 << 16, 1);  // cached: same object
  EXPECT_EQ(&a, &b);
  tuner.tune(1 << 16, 2);
  EXPECT_EQ(tuner.cache_size(), 2u);
  tuner.clear_cache();
  EXPECT_EQ(tuner.cache_size(), 0u);
}

TEST(Autotuner, ReportHoldsEveryCandidateAndTheWinner) {
  mc::Autotuner tuner(ms::k80_spec());
  const auto& best = tuner.tune(1 << 16, 1);
  const auto& report = tuner.last_report();
  const auto plans = tuner.candidates(1 << 16, 1);
  ASSERT_EQ(report.rows.size(), plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(report.rows[i].plan.describe(), plans[i].describe());
    EXPECT_GT(report.rows[i].seconds, 0.0);
    EXPECT_GE(report.rows[i].seconds, best.seconds);
  }
  EXPECT_EQ(report.winner().plan.describe(), best.plan.describe());
  EXPECT_EQ(report.winner().seconds, best.seconds);
}

TEST(Autotuner, RejectsBadShapes) {
  mc::Autotuner tuner(ms::k80_spec());
  EXPECT_THROW(tuner.tune(0, 1), mgs::util::Error);
  EXPECT_THROW(tuner.tune(1024, 0), mgs::util::Error);
}

TEST(EasyScan, ScansHostDataCorrectly) {
  const auto data = mgs::util::random_i32(10000, 3);
  const auto result = mc::scan<int>(data);
  const auto want = mgs::baselines::reference_batch_scan<int>(
      data, 10000, 1, mc::ScanKind::kInclusive);
  EXPECT_EQ(result.output, want);
  EXPECT_GT(result.run.seconds, 0.0);
}

TEST(EasyScan, BatchedAndExclusive) {
  const auto data = mgs::util::random_i32(8 * 1234, 4);
  const auto result = mc::scan<int>(data, mc::ScanKind::kExclusive, /*g=*/8);
  const auto want = mgs::baselines::reference_batch_scan<int>(
      data, 1234, 8, mc::ScanKind::kExclusive);
  EXPECT_EQ(result.output, want);
}

TEST(EasyScan, CustomOperatorAndSpec) {
  const auto data = mgs::util::random_i32(5000, 5, -50, 50);
  const auto result = mc::scan<int, mc::Max<int>>(
      data, mc::ScanKind::kInclusive, 1, {}, ms::pascal_spec());
  int acc = mc::Max<int>::identity();
  for (std::size_t i = 0; i < data.size(); ++i) {
    acc = std::max(acc, data[i]);
    ASSERT_EQ(result.output[i], acc);
  }
}

TEST(EasyScan, RejectsUnevenBatch) {
  const std::vector<int> data(10);
  EXPECT_THROW(mc::scan<int>(data, mc::ScanKind::kInclusive, 3),
               mgs::util::Error);
  EXPECT_THROW(mc::scan<int>(std::span<const int>{}, mc::ScanKind::kInclusive),
               mgs::util::Error);
}

TEST(EasyScan, DirectShapeScansIntoTheResultWithNoLease) {
  auto cluster = mgs::topo::single_gpu_cluster(ms::k80_spec());
  mc::ScanContext ctx(cluster);
  const std::int64_t n = 1000;
  ASSERT_EQ(mc::make_layout(n, 1, ctx.plan_for(n, 1).s13).bx, 1);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 6);
  const auto result = mc::scan<int>(ctx, data);
  EXPECT_EQ(result.output, mgs::baselines::reference_batch_scan<int>(
                               data, n, 1, mc::ScanKind::kInclusive));
  EXPECT_EQ(ctx.workspace().device_allocations(), 0u);
  EXPECT_EQ(ctx.workspace().reuses(), 0u);
}

TEST(EasyScan, InputTooBigForTheDeviceThrows) {
  const auto data = mgs::util::random_i32(1 << 12, 7);
  auto spec = ms::k80_spec();
  spec.memory_bytes = 2 * static_cast<std::int64_t>(data.size() * sizeof(int)) - 1;
  EXPECT_THROW(
      mc::scan<int>(data, mc::ScanKind::kInclusive, 1, {}, spec),
      mgs::util::Error);
}
