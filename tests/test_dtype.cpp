// Tests for the dtype/op-erased executor surface: every (DType, OpTag)
// cell of the dispatch matrix against the serial reference, bit-identity
// of the erased i32/plus path with the pre-refactor free function,
// plan-cache key separation by (dtype, op, segmented), f64/plus and
// i32/max through all five proposals with cache hits on repeat, exclusive
// segmented f64 scans with empty segments through the unified path, and
// degraded-mode re-planning for an f32 workload.
//
// Data magnitudes are kept small (|x| <= 6) so floating-point scans are
// exact under any association order the kernels choose -- every
// comparison here is EXPECT_EQ, no tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/api.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace ms = mgs::sim;
namespace mt = mgs::topo;
using mgs::baselines::reference_batch_scan;
using mgs::baselines::reference_segmented_scan;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 4;

/// Small-magnitude inputs: partial sums stay exactly representable in
/// f32/f64, so scans are association-independent for every dtype.
template <typename T>
std::vector<T> small_data(std::size_t count, std::uint64_t seed) {
  const auto raw = mgs::util::random_i32(count, seed);
  std::vector<T> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = static_cast<T>(raw[i] % 7);
  }
  return out;
}

/// Run one (T, Op) cell of the matrix through the erased Scan-SP path and
/// compare both scan kinds against the serial reference.
template <typename T, typename Op>
void expect_cell_matches_reference(mc::OpTag op_tag) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  mc::ExecutorParams p;
  p.dtype = *mc::dtype_of_v<T>;
  p.op = op_tag;
  auto ex = mc::make_executor("Scan-SP", ctx, p);
  ex->prepare(kN, kG);
  EXPECT_EQ(ex->dtype(), p.dtype);
  EXPECT_EQ(ex->op(), op_tag);

  const auto data = small_data<T>(static_cast<std::size_t>(kN * kG), 29);
  std::vector<T> got(data.size());
  for (const auto kind :
       {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
    ex->run(std::span<const T>(data), std::span<T>(got), kind);
    EXPECT_EQ(got, (reference_batch_scan<T, Op>(data, kN, kG, kind)))
        << mc::to_string(p.dtype) << "/" << mc::to_string(op_tag) << " "
        << mc::to_string(kind);
  }
}

template <typename T>
void expect_row_matches_reference() {
  expect_cell_matches_reference<T, mc::Plus<T>>(mc::OpTag::kPlus);
  expect_cell_matches_reference<T, mc::Max<T>>(mc::OpTag::kMax);
  expect_cell_matches_reference<T, mc::Min<T>>(mc::OpTag::kMin);
}

}  // namespace

// ------------------------------------------------------------- the matrix

TEST(DTypeMatrix, I32RowMatchesReference) {
  expect_row_matches_reference<std::int32_t>();
}

TEST(DTypeMatrix, I64RowMatchesReference) {
  expect_row_matches_reference<std::int64_t>();
}

TEST(DTypeMatrix, U32RowMatchesReference) {
  expect_row_matches_reference<std::uint32_t>();
}

TEST(DTypeMatrix, F32RowMatchesReference) {
  expect_row_matches_reference<float>();
}

TEST(DTypeMatrix, F64RowMatchesReference) {
  expect_row_matches_reference<double>();
}

// The erased i32/plus path is the pre-refactor path: same kernels, same
// plan, bit-identical output and identical modeled time as the free
// function.
TEST(DTypeMatrix, ErasedI32PlusBitIdenticalToFreeFunction) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 31);

  auto ex = mc::make_executor("Scan-SP", ctx);
  ex->prepare(kN, kG);
  std::vector<std::int32_t> got(data.size());
  const auto r = ex->run(
      mc::ConstTypedSpan::of(std::span<const std::int32_t>(data)),
      mc::TypedSpan::of(std::span<std::int32_t>(got)),
      mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(1);
  auto& dev = legacy_cluster.device(0);
  std::vector<std::int32_t> want(data.size());
  const auto rl = mc::scan_sp<std::int32_t>(dev, data, want, kN, kG,
                                            ctx.plan_for(kN, kG),
                                            mc::ScanKind::kInclusive);

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

// A wrongly-routed buffer can never be silently reinterpreted: the erased
// carriers type-check at the boundary.
TEST(DTypeMatrix, MismatchedSpanDtypeThrows) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_executor("Scan-SP", ctx);  // i32/plus
  ex->prepare(kN, 1);
  std::vector<float> fdata(static_cast<std::size_t>(kN), 1.0F);
  std::vector<float> fout(fdata.size());
  EXPECT_THROW(
      ex->run(mc::ConstTypedSpan::of(std::span<const float>(fdata)),
              mc::TypedSpan::of(std::span<float>(fout)),
              mc::ScanKind::kInclusive),
      mgs::util::Error);
}

// Packed segmented pairs carry their scalar dtype plus the segmented flag:
// neither side of the boundary can take the other's buffer.
TEST(DTypeMatrix, SegmentedAndScalarSpansDoNotMix) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto plain = mc::make_executor("Scan-SP", ctx);  // i32/plus
  auto seg = mc::make_segmented_executor("Scan-SP", ctx);
  plain->prepare(kN, 1);
  seg->prepare(kN, 1);
  std::vector<int> data(static_cast<std::size_t>(kN), 1);
  std::vector<int> out(data.size());
  std::vector<mc::SegPair<int>> pairs(data.size());
  std::vector<mc::SegPair<int>> pairs_out(data.size());
  const auto scalar_in = mc::ConstTypedSpan::of(std::span<const int>(data));
  const auto scalar_out = mc::TypedSpan::of(std::span<int>(out));
  const auto pair_in =
      mc::ConstTypedSpan::of(std::span<const mc::SegPair<int>>(pairs));
  const auto pair_out =
      mc::TypedSpan::of(std::span<mc::SegPair<int>>(pairs_out));
  EXPECT_EQ(pair_in.dtype, mc::DType::kI32);
  EXPECT_TRUE(pair_in.segmented);
  EXPECT_THROW(plain->run(pair_in, pair_out, mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_THROW(seg->run(scalar_in, scalar_out, mc::ScanKind::kInclusive),
               mgs::util::Error);
  EXPECT_NO_THROW(seg->run(pair_in, pair_out, mc::ScanKind::kInclusive));
}

// ------------------------------------------------------------- plan cache

TEST(DTypePlanCache, KeysSeparateDtypeOpAndSegmented) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);

  // A wider element re-plans (the memory-bound K space changes).
  ctx.plan_for(kN, kG, mc::DType::kF64, mc::OpTag::kPlus);
  EXPECT_EQ(ctx.plan_cache_size(), 2u);

  // The operator participates in the key.
  ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kMax);
  EXPECT_EQ(ctx.plan_cache_size(), 3u);

  // The packed segmented representation is its own key too.
  ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus,
               /*gpus_per_problem=*/1, /*segmented=*/true);
  EXPECT_EQ(ctx.plan_cache_size(), 4u);

  // Re-asking for any of them is a hit, never a re-derivation.
  const auto misses = ctx.plan_cache_misses();
  ctx.plan_for(kN, kG, mc::DType::kF64, mc::OpTag::kPlus);
  ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kMax);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);
  EXPECT_GE(ctx.plan_cache_hits(), 2u);
}

TEST(DTypePlanCache, ElemBytesDerivesFromDtypeAndSegmented) {
  mc::PlanKey k;
  k.dtype = mc::DType::kI32;
  EXPECT_EQ(k.elem_bytes(), 4);
  k.dtype = mc::DType::kF64;
  EXPECT_EQ(k.elem_bytes(), 8);
  k.segmented = true;  // SegPair<double> packs value + flag
  EXPECT_EQ(k.elem_bytes(), 16);
  k.dtype = mc::DType::kU32;
  EXPECT_EQ(k.elem_bytes(), 8);
}

// --------------------------------------------- all five proposals, erased

namespace {

struct ProposalConfig {
  const char* name;
  mc::ExecutorParams params;
};

std::vector<ProposalConfig> five_proposals() {
  return {
      {"Scan-SP", {}},
      {"Scan-MPS", {.w = 4}},
      {"Scan-MPS-direct", {.w = 4}},
      {"Scan-MP-PC", {.y = 2, .v = 4}},
      {"Scan-MPS-multinode", {.w = 8, .m = 2}},
  };
}

/// Run a proposal twice over (T, Op) through the erased path: output must
/// match the reference both times, the modeled time must be identical run
/// to run, and the second executor's prepare must hit the plan cache.
template <typename T, typename Op>
void expect_proposal_erased_run(const ProposalConfig& cfg, mc::OpTag op_tag) {
  auto cluster = mt::tsubame_kfc_cluster(2);
  mc::ScanContext ctx(cluster);
  mc::ExecutorParams p = cfg.params;
  p.dtype = *mc::dtype_of_v<T>;
  p.op = op_tag;

  const auto data = small_data<T>(static_cast<std::size_t>(kN * kG), 37);
  const auto want =
      reference_batch_scan<T, Op>(data, kN, kG, mc::ScanKind::kInclusive);

  auto ex = mc::make_executor(cfg.name, ctx, p);
  ex->prepare(kN, kG);
  std::vector<T> out1(data.size()), out2(data.size());
  const auto r1 = ex->run(std::span<const T>(data), std::span<T>(out1),
                          mc::ScanKind::kInclusive);
  const auto r2 = ex->run(std::span<const T>(data), std::span<T>(out2),
                          mc::ScanKind::kInclusive);
  EXPECT_EQ(out1, want) << cfg.name;
  EXPECT_EQ(out2, want) << cfg.name;
  EXPECT_EQ(r1.seconds, r2.seconds) << cfg.name;

  // A fresh executor over the same (shape, dtype, op) hits the cache.
  const auto misses = ctx.plan_cache_misses();
  auto ex2 = mc::make_executor(cfg.name, ctx, p);
  ex2->prepare(kN, kG);
  EXPECT_EQ(ctx.plan_cache_misses(), misses) << cfg.name;
  EXPECT_GE(ctx.plan_cache_hits(), 1u) << cfg.name;
}

}  // namespace

TEST(DTypeProposals, F64PlusThroughAllFive) {
  for (const auto& cfg : five_proposals()) {
    expect_proposal_erased_run<double, mc::Plus<double>>(cfg,
                                                         mc::OpTag::kPlus);
  }
}

TEST(DTypeProposals, I32MaxThroughAllFive) {
  for (const auto& cfg : five_proposals()) {
    expect_proposal_erased_run<std::int32_t, mc::Max<std::int32_t>>(
        cfg, mc::OpTag::kMax);
  }
}

// ------------------------------------------------------ segmented, unified

namespace {

/// Per-sequence segmented oracle over a batch, both kinds, derived from
/// the serial segmented reference (exclusive: a head yields the identity,
/// everything else the inclusive value of its left neighbor).
template <typename T, typename Op>
std::vector<T> segmented_oracle(std::span<const T> values,
                                std::span<const T> flags, std::int64_t n,
                                std::int64_t g, mc::ScanKind kind) {
  std::vector<T> out(values.size());
  for (std::int64_t p = 0; p < g; ++p) {
    const auto off = static_cast<std::size_t>(p * n);
    const auto vs = values.subspan(off, static_cast<std::size_t>(n));
    const auto fs = flags.subspan(off, static_cast<std::size_t>(n));
    const auto incl = reference_segmented_scan<T, Op>(vs, fs);
    for (std::int64_t i = 0; i < n; ++i) {
      const auto j = static_cast<std::size_t>(i);
      if (kind == mc::ScanKind::kInclusive) {
        out[off + j] = incl[j];
      } else {
        const bool head = i == 0 || fs[j] != T{0};
        out[off + j] = head ? Op::identity() : incl[j - 1];
      }
    }
  }
  return out;
}

}  // namespace

TEST(SegmentedDType, F64ExclusiveWithEmptySegments) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const std::int64_t n = 1 << 10;
  const std::int64_t g = 2;

  auto values = small_data<double>(static_cast<std::size_t>(n * g), 41);
  std::vector<double> flags(values.size(), 0.0);
  // Scattered heads, including adjacent flags (length-1 segments back to
  // back -- the "empty segment" degenerate case), a redundant flag on the
  // implicit head at the start of a sequence, and one on the last element.
  for (const std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{6},
                              std::size_t{7}, std::size_t{100},
                              std::size_t{1023}, std::size_t{1024 + 512},
                              std::size_t{1024 + 513}, std::size_t{2047}}) {
    flags[i] = 1.0;
  }

  mc::SegmentedScan<double> seg(ctx);
  seg.prepare(n, g);
  std::vector<double> got(values.size());
  for (const auto kind :
       {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
    seg.run(values, flags, got, kind);
    EXPECT_EQ(got, (segmented_oracle<double, mc::Plus<double>>(
                       values, flags, n, g, kind)))
        << mc::to_string(kind);
  }

  // The packed plan is keyed (f64, plus, segmented) in the shared cache.
  const auto misses = ctx.plan_cache_misses();
  ctx.plan_for(n, g, mc::DType::kF64, mc::OpTag::kPlus,
               /*gpus_per_problem=*/1, /*segmented=*/true);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);
  EXPECT_GE(ctx.plan_cache_hits(), 1u);
}

TEST(SegmentedDType, I64MaxBatchThroughScanMps) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const std::int64_t n = 1 << 10;
  const std::int64_t g = 8;

  auto values = small_data<std::int64_t>(static_cast<std::size_t>(n * g), 43);
  std::vector<std::int64_t> flags(values.size(), 0);
  for (std::size_t i = 13; i < flags.size(); i += 97) flags[i] = 1;

  mc::SegmentedScan<std::int64_t, mc::Max<std::int64_t>> seg(
      ctx, "Scan-MPS", {.w = 4});
  seg.prepare(n, g);
  std::vector<std::int64_t> got(values.size());
  seg.run(values, flags, got, mc::ScanKind::kInclusive);
  EXPECT_EQ(got, (segmented_oracle<std::int64_t, mc::Max<std::int64_t>>(
                     values, flags, n, g, mc::ScanKind::kInclusive)));
  EXPECT_TRUE(seg.executor().segmented());
  EXPECT_EQ(seg.executor().dtype(), mc::DType::kI64);
  EXPECT_EQ(seg.executor().op(), mc::OpTag::kMax);
}

// ---------------------------------------------------------- degraded mode

TEST(DTypeDegraded, F32ScanMpsReplansAroundDeadDevice) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  ms::FaultInjector fi{ms::FaultPlan{}};
  cluster.set_fault_injector(&fi);
  mc::ScanContext ctx(cluster);

  mc::ExecutorParams p;
  p.w = 8;
  p.dtype = mc::DType::kF32;
  auto ex = mc::make_executor("Scan-MPS", ctx, p);
  ex->prepare(kN, kG);

  const auto data = small_data<float>(static_cast<std::size_t>(kN * kG), 47);
  const auto want =
      reference_batch_scan<float>(data, kN, kG, mc::ScanKind::kInclusive);
  std::vector<float> out(data.size());

  const auto healthy = ex->run(std::span<const float>(data),
                               std::span<float>(out),
                               mc::ScanKind::kInclusive);
  EXPECT_EQ(out, want);
  EXPECT_FALSE(healthy.faults.degraded);

  fi.mark_device_down(7);
  std::fill(out.begin(), out.end(), 0.0F);
  const auto degraded = ex->run(std::span<const float>(data),
                                std::span<float>(out),
                                mc::ScanKind::kInclusive);
  EXPECT_EQ(out, want);
  EXPECT_TRUE(degraded.faults.degraded);
  EXPECT_EQ(degraded.faults.excluded_devices, std::vector<int>{7});
}
