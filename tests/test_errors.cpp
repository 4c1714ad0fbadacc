// Systematic error-path coverage: every public entry point must reject
// invalid configuration with a util::Error (recoverable) and corrupt
// internal state with an MGS_CHECK abort (programming error) -- never
// silently compute garbage.

#include <gtest/gtest.h>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/api.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace ms = mgs::sim;
namespace mt = mgs::topo;
namespace st = mgs::simt;

namespace {
mc::ScanPlan valid_plan() {
  auto plan = mc::derive_spl(ms::k80_spec(), 4).plan;
  plan.s13.k = 2;
  return plan;
}
}  // namespace

TEST(Errors, StagePlanValidation) {
  mc::StagePlan sp;
  sp.p = 0;
  EXPECT_THROW(sp.validate(), mgs::util::Error);
  sp = {};
  sp.p = 12;  // not a power of two
  EXPECT_THROW(sp.validate(), mgs::util::Error);
  sp = {};
  sp.lx = 96;
  sp.ly = 2;  // multi-problem blocks need warp-aligned Lx
  EXPECT_THROW(sp.validate(), mgs::util::Error);
  sp = {};
  sp.k = 3;
  EXPECT_THROW(sp.validate(), mgs::util::Error);
}

TEST(Errors, ScanPlanCrossChecks) {
  auto plan = valid_plan();
  plan.s13.ly = 2;  // stages 1/3 must have Ly = 1
  plan.s13.lx = 64;
  EXPECT_THROW(plan.validate(), mgs::util::Error);
  plan = valid_plan();
  plan.s2.k = 2;  // K^2 = 1 (Premise 3)
  EXPECT_THROW(plan.validate(), mgs::util::Error);
}

TEST(Errors, LayoutRejectsEmptyShapes) {
  const auto plan = valid_plan();
  EXPECT_THROW(mc::make_layout(0, 1, plan.s13), mgs::util::Error);
  EXPECT_THROW(mc::make_layout(1024, 0, plan.s13), mgs::util::Error);
}

TEST(Errors, ScanSpArgumentChecks) {
  st::Device dev(0, ms::k80_spec());
  auto buf = dev.alloc<int>(64);
  const auto plan = valid_plan();
  EXPECT_THROW(mc::scan_sp<int>(dev, buf, buf, -5, 1, plan,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_THROW(mc::scan_sp<int>(dev, buf, buf, 64, 2, plan,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);  // buffers hold only one problem
}

TEST(Errors, ScanSpRejectsPartialOverlap) {
  // Scan-SP's `out` is `in` itself or shares none of its memory: an `out`
  // 4 ints past `in` would be read after the scan had written it.
  st::Device dev(0, ms::k80_spec());
  const auto plan = valid_plan();
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 2;
  const auto elems = static_cast<std::size_t>(n * g);
  std::vector<int> buf(elems + 4, 1);
  const auto rows = [&](std::size_t at) {
    return st::DeviceBuffer<int>::borrow(std::span<int>(buf.data() + at, elems),
                                         dev.id());
  };
  auto front = rows(0);
  auto back = rows(4);
  EXPECT_THROW(mc::scan_sp<int>(dev, front, back, n, g, plan,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_THROW(mc::scan_sp<int>(dev, back, front, n, g, plan,
                                mc::ScanKind::kExclusive),
               mgs::util::Error);
  // In place is accepted and scans correctly, both kinds.
  for (const auto kind : {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
    std::vector<int> data = mgs::util::random_i32(elems, 97);
    const auto want = mgs::baselines::reference_batch_scan<int>(data, n, g, kind);
    auto io = st::DeviceBuffer<int>::borrow(std::span<int>(data), dev.id());
    EXPECT_NO_THROW(mc::scan_sp<int>(dev, io, io, n, g, plan, kind));
    EXPECT_EQ(data, want) << mc::to_string(kind);
  }
}

TEST(Errors, MpsShapeChecks) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = valid_plan();
  std::vector<int> gpus = {0, 1, 2};
  // The spans must hold N*G elements.
  std::vector<int> in(3 * 1024);
  std::vector<int> out(in.size());
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, in, out, 3 * 1024, 2, plan,
                                 mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, in,
                                 std::span<int>(out).first(1024), 3 * 1024, 1,
                                 plan, mc::ScanKind::kInclusive),
               mgs::util::Error);
  // N must divide by W.
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, in, out, 1000, 1, plan,
                                 mc::ScanKind::kInclusive),
               mgs::util::Error);
  // Scan-MP-PC: the spans must hold every group's problems.
  const auto part = mc::make_mppc_partition(cluster, 2, 2, 4);
  EXPECT_THROW(mc::scan_mppc<int>(cluster, part, in, out, 1024, plan,
                                  mc::ScanKind::kInclusive),
               mgs::util::Error);
}

TEST(Errors, ScanEntriesRejectPartialOverlap) {
  // `out` may be `in` itself, but an `out` that shares only part of `in`'s
  // memory would overwrite input rows before the scan reads them.
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = valid_plan();
  const std::vector<int> gpus = {0, 1, 2, 3};
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 2;
  const auto elems = static_cast<std::size_t>(n * g);
  std::vector<int> buf(elems + 4, 1);
  const std::span<const int> in(buf.data(), elems);
  const std::span<int> ahead(buf.data() + 4, elems);
  const std::span<int> behind(buf.data(), elems);
  const std::span<const int> in_ahead(buf.data() + 4, elems);
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, in, ahead, n, g, plan,
                                 mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, in_ahead, behind, n, g, plan,
                                 mc::ScanKind::kInclusive),
               mgs::util::Error);
  const auto part = mc::make_mppc_partition(cluster, 2, 2, g);
  EXPECT_THROW(mc::scan_mppc<int>(cluster, part, in, ahead, n, plan,
                                  mc::ScanKind::kInclusive),
               mgs::util::Error);
  // In place is accepted.
  EXPECT_NO_THROW(mc::scan_mps<int>(cluster, gpus, in, behind, n, g, plan,
                                    mc::ScanKind::kInclusive));
}

TEST(Errors, MppcPartitionChecks) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  EXPECT_THROW(mc::make_mppc_partition(cluster, 0, 2, 4), mgs::util::Error);
  EXPECT_THROW(mc::make_mppc_partition(cluster, 2, 0, 4), mgs::util::Error);
  EXPECT_THROW(mc::make_mppc_partition(cluster, 2, 2, 4, /*nodes=*/5),
               mgs::util::Error);
}

TEST(Errors, MultinodeShapeChecks) {
  auto cluster = mt::tsubame_kfc_cluster(2);
  const std::vector<int> ranks = {0, 1, 8, 9};
  std::vector<int> in(1001);
  std::vector<int> out(in.size());
  // N must divide by the rank count.
  EXPECT_THROW(mc::scan_mps<int>(cluster, ranks, in, out, 1001, 1,
                                 valid_plan(), mc::ScanKind::kInclusive, {},
                                 mc::MpsGather::kMpi),
               mgs::util::Error);
}

TEST(Errors, SegmentedScanChecks) {
  st::Device dev(0, ms::k80_spec());
  auto small = dev.alloc<int>(8);
  auto big = dev.alloc<int>(64);
  EXPECT_THROW(
      mc::segmented_scan_sp<int>(dev, big, small, big, 64, valid_plan()),
      mgs::util::Error);
  EXPECT_THROW(
      mc::segmented_scan_sp<int>(dev, big, big, big, 0, valid_plan()),
      mgs::util::Error);
}

TEST(Errors, DeviceMemoryExhaustionIsRecoverable) {
  auto spec = ms::k80_spec();
  spec.memory_bytes = 1 << 16;
  st::Device dev(0, spec);
  EXPECT_THROW((void)dev.alloc<int>(1 << 20), mgs::util::Error);
  // After the failed allocation the device is still usable.
  auto ok = dev.alloc<int>(64);
  EXPECT_EQ(dev.allocated_bytes(), 256);
}

TEST(Errors, TuningArgumentChecks) {
  EXPECT_THROW(mc::derive_spl(ms::k80_spec(), 0), mgs::util::Error);
  const auto plan = valid_plan();
  EXPECT_THROW(mc::k1_max_eq1(0, 1, plan, ms::k80_spec()), mgs::util::Error);
  EXPECT_THROW(mc::k1_max_gpus(1024, plan.s13, 0), mgs::util::Error);
}

TEST(Errors, PlannerRejectsImpossibleShapes) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  EXPECT_THROW(mc::choose_proposal(cluster, {.n = 0, .g = 1}),
               mgs::util::Error);
  EXPECT_THROW(mc::choose_proposal(cluster, {.n = 1024, .g = 0}),
               mgs::util::Error);
}

TEST(ErrorsDeath, InternalInvariantsAbort) {
  // Clock going backwards is a programming error, not a config error.
  ms::Clock clock;
  EXPECT_DEATH(clock.advance(-1.0), "negative duration");
  // Breakdown with negative duration likewise.
  ms::Breakdown bd;
  EXPECT_DEATH(bd.add("x", -0.5), "negative duration");
}
