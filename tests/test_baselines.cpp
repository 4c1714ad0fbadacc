// Tests for the baseline-library models: each one's scan must be
// bit-correct against the serial reference (they are real algorithm
// implementations), and their modeled costs must respect the relations
// the paper reports (CUB near peak; Thrust well below; per-call overheads
// ordered LightScan > ModernGPU > Thrust > CUDPP > CUB).

#include <gtest/gtest.h>

#include "mgs/baselines/cub.hpp"
#include "mgs/baselines/cudpp.hpp"
#include "mgs/baselines/lightscan.hpp"
#include "mgs/baselines/moderngpu.hpp"
#include "mgs/baselines/reference.hpp"
#include "mgs/baselines/registry.hpp"
#include "mgs/baselines/thrust.hpp"
#include "mgs/util/random.hpp"

namespace mb = mgs::baselines;
namespace mc = mgs::core;
namespace st = mgs::simt;

namespace {

st::Device make_device() { return st::Device(0, mgs::sim::k80_spec()); }

struct NamedCase {
  std::string baseline;
  std::int64_t n;
  std::int64_t g;
  mc::ScanKind kind;
};

void check_batch(const NamedCase& c) {
  auto dev = make_device();
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(c.n * c.g),
      static_cast<std::uint64_t>(c.n * 31 + c.g));
  std::vector<std::int32_t> out(data.size());

  const auto r = mb::run_baseline(c.baseline, dev, data, out, c.n, c.g, c.kind);
  EXPECT_GT(r.seconds, 0.0);

  const auto want = mb::reference_batch_scan<std::int32_t>(data, c.n, c.g, c.kind);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i])
        << c.baseline << " n=" << c.n << " g=" << c.g << " i=" << i;
  }
}

}  // namespace

class BaselineSweep : public ::testing::TestWithParam<NamedCase> {};

TEST_P(BaselineSweep, BatchMatchesReference) { check_batch(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    AllLibraries, BaselineSweep,
    ::testing::Values(
        NamedCase{"CUDPP", 1 << 14, 1, mc::ScanKind::kInclusive},
        NamedCase{"CUDPP", 1 << 14, 4, mc::ScanKind::kExclusive},
        NamedCase{"CUDPP", 10000, 3, mc::ScanKind::kInclusive},
        NamedCase{"CUDPP", 1 << 18, 1, mc::ScanKind::kExclusive},  // recursion
        NamedCase{"Thrust", 1 << 14, 1, mc::ScanKind::kInclusive},
        NamedCase{"Thrust", 5000, 4, mc::ScanKind::kExclusive},
        NamedCase{"ModernGPU", 1 << 15, 2, mc::ScanKind::kInclusive},
        NamedCase{"ModernGPU", 9999, 2, mc::ScanKind::kExclusive},
        NamedCase{"CUB", 1 << 16, 1, mc::ScanKind::kInclusive},
        NamedCase{"CUB", 1 << 13, 8, mc::ScanKind::kExclusive},
        NamedCase{"CUB", 7777, 3, mc::ScanKind::kInclusive},
        NamedCase{"LightScan", 1 << 16, 1, mc::ScanKind::kInclusive},
        NamedCase{"LightScan", 1 << 12, 6, mc::ScanKind::kExclusive},
        NamedCase{"LightScan", 31415, 2, mc::ScanKind::kInclusive},
        // Single-tile and tile-boundary edges for every algorithm.
        NamedCase{"CUDPP", 2048, 1, mc::ScanKind::kExclusive},
        NamedCase{"CUDPP", 2049, 1, mc::ScanKind::kInclusive},
        NamedCase{"Thrust", 1024, 1, mc::ScanKind::kInclusive},
        NamedCase{"Thrust", 1025, 1, mc::ScanKind::kExclusive},
        NamedCase{"ModernGPU", 4096, 1, mc::ScanKind::kExclusive},
        NamedCase{"CUB", 2048, 1, mc::ScanKind::kInclusive},
        NamedCase{"CUB", 2049, 1, mc::ScanKind::kExclusive},
        NamedCase{"LightScan", 4097, 1, mc::ScanKind::kInclusive},
        NamedCase{"LightScan", 1, 1, mc::ScanKind::kExclusive}),
    [](const ::testing::TestParamInfo<NamedCase>& info) {
      return info.param.baseline + "_n" + std::to_string(info.param.n) + "_g" +
             std::to_string(info.param.g) + "_" +
             (info.param.kind == mc::ScanKind::kInclusive ? "inc" : "exc");
    });

TEST(BaselineRegistry, FiveLibrariesRegistered) {
  const auto& all = mb::all_baselines();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "CUDPP");
  EXPECT_TRUE(all[0].native_batch);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i].native_batch);
  }
  EXPECT_THROW(mb::baseline_by_name("nccl"), mgs::util::Error);
  auto dev = make_device();
  std::vector<std::int32_t> in(16), out(16);
  EXPECT_THROW(mb::run_baseline("nccl", dev, in, out, 16, 1,
                                mc::ScanKind::kInclusive),
               mgs::util::Error);
}

TEST(BaselinePerf, PerCallOverheadOrdering) {
  // The paper's Figure 12 extremes imply the tight-loop per-invocation
  // cost order (call + loop churn): LightScan worst, CUB best.
  const auto loop_cost = [](const mb::BaselineTraits& t) {
    return t.per_call_overhead_us + t.loop_extra_us;
  };
  EXPECT_GT(loop_cost(mb::lightscan_traits()),
            loop_cost(mb::moderngpu_traits()));
  EXPECT_GT(loop_cost(mb::moderngpu_traits()), loop_cost(mb::thrust_traits()));
  EXPECT_GT(loop_cost(mb::thrust_traits()), loop_cost(mb::cudpp_traits()));
  EXPECT_GT(loop_cost(mb::cudpp_traits()), loop_cost(mb::cub_traits()));
  // A single cold call, by contrast, is moderate for everyone (Figure 11's
  // G=1 world): within ~4x of CUB's.
  for (const auto& t : {mb::thrust_traits(), mb::moderngpu_traits(),
                        mb::lightscan_traits(), mb::cudpp_traits()}) {
    EXPECT_LE(t.per_call_overhead_us,
              4 * mb::cub_traits().per_call_overhead_us);
  }
}

TEST(BaselinePerf, LoopChurnOnlyChargedBetweenCalls) {
  const std::int64_t n = 1 << 12;
  const std::vector<std::int32_t> in(4 * n, 1);
  std::vector<std::int32_t> out(in.size());
  const auto run = [&](const std::string& name, std::int64_t g) {
    auto dev = make_device();
    return mb::run_baseline(name, dev, in, out, n, g,
                            mc::ScanKind::kInclusive);
  };
  // One invocation (G=1) must not pay the loop penalty.
  const auto single = run("ModernGPU", 1);
  EXPECT_EQ(single.breakdown.get("HostLoopChurn"), 0.0);

  // A per-problem library is invoked G times: G host-API charges, and
  // loop churn between consecutive calls.
  const auto batch = run("ModernGPU", 4);
  EXPECT_NEAR(batch.breakdown.get("HostAPI"),
              4 * mb::moderngpu_traits().per_call_overhead_us * 1e-6, 1e-12);
  EXPECT_NEAR(batch.breakdown.get("HostLoopChurn"),
              3 * mb::moderngpu_traits().loop_extra_us * 1e-6, 1e-12);

  // CUDPP's native multiScan is one invocation for all G problems.
  const auto native = run("CUDPP", 4);
  EXPECT_NEAR(native.breakdown.get("HostAPI"),
              mb::cudpp_traits().per_call_overhead_us * 1e-6, 1e-12);
  EXPECT_EQ(native.breakdown.get("HostLoopChurn"), 0.0);
}

TEST(BaselinePerf, CubIsFastestSingleGpuAtLargeN) {
  // "CUB already runs at nearly the maximum theoretical rate" -- at large
  // N, CUB must beat every other library model on one GPU.
  const std::int64_t n = 1 << 22;
  const std::vector<std::int32_t> in(n);
  std::vector<std::int32_t> out(n);
  const auto seconds = [&](const std::string& name) {
    auto dev = make_device();
    return mb::run_baseline(name, dev, in, out, n, 1, mc::ScanKind::kInclusive)
        .seconds;
  };
  const double cub_time = seconds("CUB");
  ASSERT_GT(cub_time, 0.0);
  for (const auto& b : mb::all_baselines()) {
    if (b.name == "CUB") continue;
    EXPECT_GT(seconds(b.name), cub_time) << b.name;
  }
}

TEST(BaselinePerf, ThrustFarBelowCubAtLargeN) {
  // Figure 11: our proposal is ~1.04x vs CUB but 7.8x vs Thrust, so the
  // Thrust model must be several times slower than CUB.
  const std::int64_t n = 1 << 22;
  auto d1 = make_device();
  auto in1 = d1.alloc<std::int32_t>(n);
  auto out1 = d1.alloc<std::int32_t>(n);
  const auto cub = mb::cub_scan<std::int32_t>(d1, in1, out1, 0, n,
                                              mc::ScanKind::kInclusive);
  auto d2 = make_device();
  auto in2 = d2.alloc<std::int32_t>(n);
  auto out2 = d2.alloc<std::int32_t>(n);
  const auto thrust = mb::thrust_scan<std::int32_t>(d2, in2, out2, 0, n,
                                                    mc::ScanKind::kInclusive);
  EXPECT_GT(thrust.seconds / cub.seconds, 4.0);
  EXPECT_LT(thrust.seconds / cub.seconds, 12.0);
}

TEST(BaselinePerf, CudppMultiscanBeatsPerProblemInvocationAtLargeG) {
  // CUDPP amortizes one invocation over G problems; a per-problem library
  // with comparable kernels (ModernGPU) must lose badly at large G.
  const std::int64_t n = 1 << 12;
  const std::int64_t g = 256;
  const std::vector<std::int32_t> in(n * g);
  std::vector<std::int32_t> out(n * g);
  auto d1 = make_device();
  const auto cudpp = mb::run_baseline("CUDPP", d1, in, out, n, g,
                                      mc::ScanKind::kInclusive);
  auto d2 = make_device();
  const auto mgpu = mb::run_baseline("ModernGPU", d2, in, out, n, g,
                                     mc::ScanKind::kInclusive);
  EXPECT_GT(mgpu.seconds / cudpp.seconds, 5.0);
}

TEST(BaselinePerf, LightScanChainPenaltyGrowsWithBlocks) {
  auto d1 = make_device();
  const std::int64_t small_n = 1 << 14;
  auto in1 = d1.alloc<std::int32_t>(small_n);
  auto out1 = d1.alloc<std::int32_t>(small_n);
  const auto small = mb::lightscan_scan<std::int32_t>(
      d1, in1, out1, 0, small_n, mc::ScanKind::kInclusive);
  auto d2 = make_device();
  const std::int64_t big_n = 1 << 20;
  auto in2 = d2.alloc<std::int32_t>(big_n);
  auto out2 = d2.alloc<std::int32_t>(big_n);
  const auto big = mb::lightscan_scan<std::int32_t>(
      d2, in2, out2, 0, big_n, mc::ScanKind::kInclusive);
  EXPECT_GT(big.breakdown.get("lightscan_chain"),
            small.breakdown.get("lightscan_chain"));
}

TEST(Baselines, OffsetInvocationScansSubrangeOnly) {
  // Per-problem invocation must not touch neighbouring problems.
  auto dev = make_device();
  const std::int64_t n = 4096;
  auto in = dev.alloc<std::int32_t>(3 * n);
  auto out = dev.alloc<std::int32_t>(3 * n);
  for (std::int64_t i = 0; i < 3 * n; ++i) {
    in.host_span()[static_cast<std::size_t>(i)] = 1;
    out.host_span()[static_cast<std::size_t>(i)] = -77;
  }
  mb::cub_scan<std::int32_t>(dev, in, out, n, n, mc::ScanKind::kInclusive);
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(n - 1)], -77);
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(n)], 1);
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(2 * n - 1)],
            static_cast<std::int32_t>(n));
  EXPECT_EQ(out.host_span()[static_cast<std::size_t>(2 * n)], -77);
}

TEST(Baselines, OutOverlappingInThrowsForEveryLibrary) {
  // An `out` that shares only part of `in`'s memory would be read after
  // it was written; the entry refuses it before any model runs.
  const std::int64_t n = 3000;
  const std::int64_t g = 2;
  std::vector<std::int32_t> buf(static_cast<std::size_t>(n * g + 4), 1);
  const std::span<std::int32_t> all(buf);
  for (const auto& b : mb::all_baselines()) {
    for (const auto kind :
         {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
      auto dev = make_device();
      EXPECT_THROW(mb::run_baseline(b.name, dev, all.first(n * g),
                                    all.subspan(4), n, g, kind),
                   mgs::util::Error)
          << b.name;
      EXPECT_EQ(dev.clock().now(), 0.0) << b.name;
    }
  }
}

TEST(Baselines, InPlaceMatchesReferenceOrThrows) {
  // out == in: each library either scans in place correctly or refuses
  // (CUDPP's inclusive fixup re-reads the input, so it refuses).
  const std::int64_t n = 5000;  // no library's tile size divides it
  const std::int64_t g = 3;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n * g), 41);
  for (const auto& b : mb::all_baselines()) {
    for (const auto kind :
         {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
      const auto want =
          mb::reference_batch_scan<std::int32_t>(data, n, g, kind);
      auto rows = data;
      auto dev = make_device();
      const bool exclusive = kind == mc::ScanKind::kExclusive;
      try {
        mb::run_baseline(b.name, dev, rows, rows, n, g, kind);
      } catch (const mgs::util::Error&) {
        EXPECT_FALSE(b.name == "CUDPP" && exclusive) << b.name;
        continue;
      }
      EXPECT_FALSE(b.name == "CUDPP" && !exclusive) << b.name;
      EXPECT_EQ(rows, want) << b.name << (exclusive ? " exc" : " inc");
    }
  }
}
