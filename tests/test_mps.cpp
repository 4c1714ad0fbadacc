// Integration tests for Scan-MPS (multi-GPU problem scattering):
// correctness against the reference for several W, batch shapes and scan
// kinds, plus the performance relations the paper reports (P2P groups
// scale; W=8 pays the host-staging penalty).

#include <gtest/gtest.h>

#include <tuple>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace mt = mgs::topo;
using mgs::baselines::reference_batch_scan;

namespace {

mc::ScanPlan paper_plan(int k) {
  auto plan = mc::derive_spl(mgs::sim::k80_spec(), 4).plan;
  plan.s13.k = k;
  return plan;
}

std::vector<int> first_gpus(int w) {
  std::vector<int> ids;
  for (int d = 0; d < w; ++d) ids.push_back(d);
  return ids;
}

mc::RunResult run_mps(mt::Cluster& cluster, int w, std::int64_t n,
                      std::int64_t g, mc::ScanKind kind, int k,
                      std::vector<int>* out_data_check_seed = nullptr,
                      std::vector<int>* got = nullptr) {
  const auto plan = paper_plan(k);
  const auto gpus = first_gpus(w);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g),
                                          static_cast<std::uint64_t>(n + w));
  std::vector<int> out(data.size());
  const auto r = mc::scan_mps<int>(cluster, gpus, data, out, n, g, plan, kind);
  if (got != nullptr) *got = std::move(out);
  if (out_data_check_seed != nullptr) {
    *out_data_check_seed = data;
  }
  return r;
}

}  // namespace

struct MpsCase {
  int w;
  std::int64_t n;
  std::int64_t g;
  mc::ScanKind kind;
  int k;
};

class MpsSweep : public ::testing::TestWithParam<MpsCase> {};

TEST_P(MpsSweep, MatchesReference) {
  const auto c = GetParam();
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::vector<int> data, got;
  run_mps(cluster, c.w, c.n, c.g, c.kind, c.k, &data, &got);
  const auto want = reference_batch_scan<int>(data, c.n, c.g, c.kind);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "w=" << c.w << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MpsSweep,
    ::testing::Values(MpsCase{2, 1 << 14, 1, mc::ScanKind::kInclusive, 1},
                      MpsCase{2, 1 << 14, 1, mc::ScanKind::kExclusive, 1},
                      MpsCase{4, 1 << 16, 2, mc::ScanKind::kInclusive, 2},
                      MpsCase{4, 1 << 16, 2, mc::ScanKind::kExclusive, 2},
                      MpsCase{8, 1 << 17, 4, mc::ScanKind::kInclusive, 2},
                      MpsCase{8, 1 << 15, 8, mc::ScanKind::kExclusive, 1},
                      MpsCase{1, 1 << 14, 2, mc::ScanKind::kInclusive, 2},
                      // Portion sizes with partial chunks.
                      MpsCase{4, 4 * 12345, 2, mc::ScanKind::kInclusive, 2},
                      MpsCase{2, 2 * 1000, 3, mc::ScanKind::kExclusive, 1}));

class MpsInPlace : public ::testing::TestWithParam<
                       std::tuple<mc::MpsGather, mc::ScanKind>> {};

TEST_P(MpsInPlace, MatchesReference) {
  // `out` may be `in` itself, on every transport and both schedules.
  const auto [gather, kind] = GetParam();
  const std::int64_t n = 4 * 12345;  // partial chunks
  const std::int64_t g = 3;
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 9);
  const auto want = reference_batch_scan<int>(data, n, g, kind);
  for (const bool overlap : {false, true}) {
    auto cluster = mt::tsubame_kfc_cluster(2);
    const std::vector<int> gpus = gather == mc::MpsGather::kMpi
                                      ? std::vector<int>{0, 1, 8, 9}
                                      : first_gpus(4);
    auto plan = paper_plan(2);
    plan.pipe.overlap = overlap;
    plan.pipe.waves = 2;
    auto buf = data;
    mc::scan_mps<int>(cluster, gpus, buf, buf, n, g, plan, kind, {}, gather);
    EXPECT_EQ(buf, want) << "overlap=" << overlap;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, MpsInPlace,
    ::testing::Combine(::testing::Values(mc::MpsGather::kCopies,
                                         mc::MpsGather::kPeerWrites,
                                         mc::MpsGather::kMpi),
                       ::testing::Values(mc::ScanKind::kInclusive,
                                         mc::ScanKind::kExclusive)));

TEST(Mps, BreakdownHasAllPhases) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto r = run_mps(cluster, 4, 1 << 16, 2, mc::ScanKind::kInclusive, 2);
  EXPECT_GT(r.breakdown.get("Stage1"), 0.0);
  EXPECT_GT(r.breakdown.get("AuxGather"), 0.0);
  EXPECT_GT(r.breakdown.get("Stage2"), 0.0);
  EXPECT_GT(r.breakdown.get("AuxScatter"), 0.0);
  EXPECT_GT(r.breakdown.get("Stage3"), 0.0);
  EXPECT_NEAR(r.breakdown.total(), r.seconds, 1e-12);
}

TEST(Mps, RequiresDivisibleN) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = paper_plan(1);
  const auto gpus = first_gpus(4);
  std::vector<int> data(1001);
  std::vector<int> out(data.size());
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, data, out, 1001, 1, plan,
                                 mc::ScanKind::kInclusive),
               mgs::util::Error);
}

TEST(MpsDirect, MatchesReferenceOnP2PNetwork) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = paper_plan(2);
  const std::vector<int> gpus = {0, 1, 2, 3};
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 4;
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 31);
  std::vector<int> out(data.size());
  const auto r = mc::scan_mps<int>(cluster, gpus, data, out, n, g, plan,
                                   mc::ScanKind::kInclusive, {},
                                   mc::MpsGather::kPeerWrites);
  EXPECT_GT(r.breakdown.get("Stage1+P2PWrites"), 0.0);
  EXPECT_EQ(r.breakdown.get("AuxGather"), 0.0);  // no separate gather step
  EXPECT_EQ(out, reference_batch_scan<int>(data, n, g,
                                           mc::ScanKind::kInclusive));
}

TEST(MpsDirect, RejectsCrossNetworkGroups) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = paper_plan(1);
  std::vector<int> gpus = {0, 1, 4, 5};  // spans both PCIe networks
  std::vector<int> data(1 << 14);
  std::vector<int> out(data.size());
  EXPECT_THROW(mc::scan_mps<int>(cluster, gpus, data, out, 1 << 14, 1, plan,
                                 mc::ScanKind::kInclusive, {},
                                 mc::MpsGather::kPeerWrites),
               mgs::util::Error);
}

TEST(MpsDirect, OverlapBeatsExplicitGatherAtLargeG) {
  // The point of the variant: with many small per-problem aux rows, the
  // pipelined peer writes avoid the serialized gather at the master.
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 256;
  const auto plan = paper_plan(2);
  const std::vector<int> gpus = {0, 1, 2, 3};
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 32);

  auto c1 = mt::tsubame_kfc_cluster(1);
  std::vector<int> out1(data.size());
  const auto regular = mc::scan_mps<int>(c1, gpus, data, out1, n, g, plan,
                                         mc::ScanKind::kInclusive);
  auto c2 = mt::tsubame_kfc_cluster(1);
  std::vector<int> out2(data.size());
  const auto direct = mc::scan_mps<int>(c2, gpus, data, out2, n, g, plan,
                                        mc::ScanKind::kInclusive, {},
                                        mc::MpsGather::kPeerWrites);
  EXPECT_LT(direct.seconds, regular.seconds);
  EXPECT_EQ(out2, out1);
}

TEST(Mps, GenericOperatorAcrossGpus) {
  // The carry chain through the auxiliary array must respect a non-plus
  // operator across GPU boundaries.
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = paper_plan(2);
  const std::vector<int> gpus = {0, 1, 2, 3};
  const std::int64_t n = 1 << 16;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n), 21, -100000, 100000);
  std::vector<int> got(data.size());
  mc::scan_mps<int, mc::Max<int>>(cluster, gpus, data, got, n, 1, plan,
                                  mc::ScanKind::kInclusive);
  int acc = mc::Max<int>::identity();
  for (std::int64_t i = 0; i < n; ++i) {
    acc = std::max(acc, data[static_cast<std::size_t>(i)]);
    ASSERT_EQ(got[static_cast<std::size_t>(i)], acc) << i;
  }
}

TEST(Mps, Int64AcrossGpus) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = paper_plan(1);
  const std::vector<int> gpus = {0, 1};
  const std::int64_t n = 1 << 14;
  const auto data = mgs::util::random_i64(static_cast<std::size_t>(n), 22);
  std::vector<std::int64_t> got(data.size());
  mc::scan_mps<std::int64_t>(cluster, gpus, data, got, n, 1, plan,
                             mc::ScanKind::kInclusive);
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += data[static_cast<std::size_t>(i)];
    ASSERT_EQ(got[static_cast<std::size_t>(i)], acc) << i;
  }
}

// ---- Performance-relation tests (deterministic simulated time) --------

TEST(MpsPerf, ScalesFromOneToFourGpusOnP2P) {
  // W in {1,2,4} all live on one PCIe network: more GPUs -> faster
  // (Figure 9's lower-left region).
  const std::int64_t n = 1 << 22;
  const std::int64_t g = 4;
  double prev = 1e9;
  for (int w : {1, 2, 4}) {
    auto cluster = mt::tsubame_kfc_cluster(1);
    const auto r = run_mps(cluster, w, n, g, mc::ScanKind::kInclusive, 4);
    EXPECT_LT(r.seconds, prev) << "W=" << w;
    prev = r.seconds;
  }
}

TEST(MpsPerf, HostStagingPenaltyAtW8) {
  // W=8 spans both PCIe networks: the aux arrays stage through host
  // memory. With many problems (large G), W=8 must be *slower* than W=4
  // despite twice the GPUs -- the paper's W=8 drop in Figure 9.
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 256;
  auto c4 = mt::tsubame_kfc_cluster(1);
  const auto r4 = run_mps(c4, 4, n, g, mc::ScanKind::kInclusive, 2);
  auto c8 = mt::tsubame_kfc_cluster(1);
  const auto r8 = run_mps(c8, 8, n, g, mc::ScanKind::kInclusive, 2);
  EXPECT_GT(r8.seconds, r4.seconds);
}

TEST(MpsPerf, W8RecoversAsGShrinks) {
  // The W=8 penalty is per-problem (one aux row per problem): at G=1 the
  // host-staged traffic is a handful of fixed-latency hops, so doubling
  // the GPUs eventually wins once N is large enough (the right side of
  // Figure 9, where the W=8 curve recovers).
  const std::int64_t n = 1 << 26;
  auto c4 = mt::tsubame_kfc_cluster(1);
  const auto r4 = run_mps(c4, 4, n, 1, mc::ScanKind::kInclusive, 32);
  auto c8 = mt::tsubame_kfc_cluster(1);
  const auto r8 = run_mps(c8, 8, n, 1, mc::ScanKind::kInclusive, 32);
  EXPECT_LT(r8.seconds, r4.seconds);

  // And at a small N the same W=8 configuration still loses to W=4: the
  // crossover exists.
  const std::int64_t small_n = 1 << 16;
  auto s4 = mt::tsubame_kfc_cluster(1);
  const auto rs4 = run_mps(s4, 4, small_n, 1, mc::ScanKind::kInclusive, 2);
  auto s8 = mt::tsubame_kfc_cluster(1);
  const auto rs8 = run_mps(s8, 8, small_n, 1, mc::ScanKind::kInclusive, 2);
  EXPECT_GT(rs8.seconds, rs4.seconds);
}

TEST(MpsPerf, NoW8PenaltyOnAnNvlinkFabric) {
  // Counterfactual for Figure 9's mechanism: on a DGX-1-class node all 8
  // GPUs share one fabric, so the W=8 configuration never stages through
  // host memory and must *beat* W=4 even at large G -- proving the K80
  // platform's W=8 drop really is the cross-network staging, not
  // something intrinsic to 8 GPUs.
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 256;
  const auto plan = paper_plan(2);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 77);

  std::vector<int> out(data.size());
  auto c4 = mgs::topo::dgx1_like_cluster(1);
  const auto r4 = mc::scan_mps<int>(c4, first_gpus(4), data, out, n, g, plan,
                                    mc::ScanKind::kInclusive);
  auto c8 = mgs::topo::dgx1_like_cluster(1);
  const auto r8 = mc::scan_mps<int>(c8, first_gpus(8), data, out, n, g, plan,
                                    mc::ScanKind::kInclusive);
  EXPECT_LT(r8.seconds, r4.seconds);
  EXPECT_EQ(out,
            reference_batch_scan<int>(data, n, g, mc::ScanKind::kInclusive));
}

TEST(MpsPerf, DeterministicRuns) {
  auto c1 = mt::tsubame_kfc_cluster(1);
  const auto a = run_mps(c1, 4, 1 << 18, 4, mc::ScanKind::kInclusive, 2);
  auto c2 = mt::tsubame_kfc_cluster(1);
  const auto b = run_mps(c2, 4, 1 << 18, 4, mc::ScanKind::kInclusive, 2);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}

TEST(Mps, StragglerGpuDelaysTheWholeScan) {
  // Failure/straggler injection: one GPU enters the collective phases
  // late (e.g. it was busy with an earlier kernel); the bulk-synchronous
  // pipeline must absorb the delay into the makespan, not lose it.
  const std::int64_t n = 1 << 18;
  auto c1 = mt::tsubame_kfc_cluster(1);
  const auto base = run_mps(c1, 4, n, 2, mc::ScanKind::kInclusive, 2);

  auto c2 = mt::tsubame_kfc_cluster(1);
  const double delay = 5e-3;
  c2.device(2).clock().advance(delay);  // GPU 2 starts 5 ms late
  std::vector<int> data, got;
  const auto plan2 = paper_plan(2);
  const auto gpus = first_gpus(4);
  const auto input = mgs::util::random_i32(static_cast<std::size_t>(n * 2),
                                           static_cast<std::uint64_t>(n + 4));
  std::vector<int> out(input.size());
  const auto delayed = mc::scan_mps<int>(c2, gpus, input, out, n, 2, plan2,
                                         mc::ScanKind::kInclusive);
  // The makespan (measured from the common phase start, which includes
  // the straggler) grows by at most the injected delay, and the result
  // stays correct.
  EXPECT_GE(c2.makespan({0, 1, 2, 3}), delay + base.seconds * 0.5);
  EXPECT_EQ(out,
            reference_batch_scan<int>(input, n, 2, mc::ScanKind::kInclusive));
}

TEST(Mps, SolvesProblemTooLargeForOneGpu) {
  // Case 2 of Section 4: N elements that exceed a single GPU's memory
  // must still be solvable by scattering. Use a shrunken device so the
  // test stays small: 1 MiB per GPU, problem of 1 MiB in+out.
  mt::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.networks_per_node = 1;
  cfg.gpus_per_network = 4;
  cfg.gpu = mgs::sim::k80_spec();
  cfg.gpu.memory_bytes = 1 << 20;
  mt::Cluster cluster(cfg);

  const std::int64_t n = (1 << 17) + 4;  // in + out just over 1 MiB
  mgs::simt::Device solo(99, cfg.gpu);
  EXPECT_THROW(
      {
        auto a = solo.alloc<int>(n);
        auto b = solo.alloc<int>(n);
      },
      mgs::util::Error);

  const auto plan = paper_plan(2);
  const auto gpus = first_gpus(4);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 5);
  std::vector<int> got(data.size());
  mc::scan_mps<int>(cluster, gpus, data, got, n, 1, plan,
                    mc::ScanKind::kInclusive);
  const auto want = reference_batch_scan<int>(data, n, 1,
                                              mc::ScanKind::kInclusive);
  EXPECT_EQ(got, want);
}
