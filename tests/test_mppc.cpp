// Integration tests for Scan-MP-PC (prioritized communications):
// partition construction, correctness against the reference, and the
// performance relations of Section 4.1.1 (P2P-only groups beat the
// host-staged W=8 MPS at large G).

#include <gtest/gtest.h>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/scan_mppc.hpp"
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

}  // namespace

TEST(MppcPartition, ShapeAndProblemSplit) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto part = mc::make_mppc_partition(cluster, /*y=*/2, /*v=*/4, /*g=*/12);
  ASSERT_EQ(part.groups.size(), 2u);
  EXPECT_EQ(part.groups[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(part.groups[1], (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(part.g_of_group[0], 6);
  EXPECT_EQ(part.g_of_group[1], 6);
  EXPECT_EQ(part.g_offset[1], 6);
  // Every group's GPUs sit on one PCIe network (pure P2P).
  for (const auto& grp : part.groups) {
    for (int a : grp) {
      for (int b : grp) {
        if (a != b) {
          EXPECT_EQ(cluster.link_between(a, b), mt::LinkType::kP2P);
        }
      }
    }
  }
}

TEST(MppcPartition, UnevenBatchAndReducedNetworks) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  // 5 problems over 2 networks: 3 + 2.
  auto part = mc::make_mppc_partition(cluster, 2, 2, 5);
  EXPECT_EQ(part.g_of_group[0], 3);
  EXPECT_EQ(part.g_of_group[1], 2);
  // G=1 < Y=2: group count reduced to 1 (the paper's rule).
  part = mc::make_mppc_partition(cluster, 2, 2, 1);
  EXPECT_EQ(part.groups.size(), 1u);
}

TEST(MppcPartition, MultiNodeGroups) {
  auto cluster = mt::tsubame_kfc_cluster(2);
  const auto part =
      mc::make_mppc_partition(cluster, 2, 4, /*g=*/8, /*nodes=*/2);
  ASSERT_EQ(part.groups.size(), 4u);  // 2 nodes x 2 networks
  EXPECT_EQ(part.groups[2][0], 8);    // node 1, network 0 starts at GPU 8
}

TEST(MppcPartition, RejectsBadShapes) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  EXPECT_THROW(mc::make_mppc_partition(cluster, 3, 2, 4), mgs::util::Error);
  EXPECT_THROW(mc::make_mppc_partition(cluster, 2, 5, 4), mgs::util::Error);
  EXPECT_THROW(mc::make_mppc_partition(cluster, 2, 2, 0), mgs::util::Error);
}

struct MppcCase {
  int y;
  int v;
  std::int64_t n;
  std::int64_t g;
  mc::ScanKind kind;
};

class MppcSweep : public ::testing::TestWithParam<MppcCase> {};

TEST_P(MppcSweep, MatchesReference) {
  const auto c = GetParam();
  auto cluster = mt::tsubame_kfc_cluster(1);
  const auto plan = paper_plan(2);
  const auto part = mc::make_mppc_partition(cluster, c.y, c.v, c.g);
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(c.n * c.g),
      static_cast<std::uint64_t>(c.n + c.g));
  std::vector<int> got(data.size());
  mc::scan_mppc<int>(cluster, part, data, got, c.n, plan, c.kind);
  const auto want = reference_batch_scan<int>(data, c.n, c.g, c.kind);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MppcSweep,
    ::testing::Values(
        MppcCase{2, 2, 1 << 14, 4, mc::ScanKind::kInclusive},
        MppcCase{2, 2, 1 << 14, 4, mc::ScanKind::kExclusive},
        MppcCase{2, 4, 1 << 15, 8, mc::ScanKind::kInclusive},
        MppcCase{2, 4, 1 << 13, 3, mc::ScanKind::kExclusive},  // uneven split
        MppcCase{1, 4, 1 << 15, 2, mc::ScanKind::kInclusive},
        MppcCase{2, 2, 2 * 9999, 5, mc::ScanKind::kInclusive}));

TEST(Mppc, MultiNodeVariantMatchesReference) {
  // Section 4.1.1's multi-node MP-PC: each node's networks solve their
  // own problems, no MPI at all -- the same code runs across nodes.
  auto cluster = mt::tsubame_kfc_cluster(2);
  const std::int64_t n = 1 << 14;
  const std::int64_t g = 8;
  const auto plan = paper_plan(2);
  const auto part = mc::make_mppc_partition(cluster, 2, 2, g, /*nodes=*/2);
  ASSERT_EQ(part.groups.size(), 4u);  // 2 nodes x 2 networks
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 6);
  std::vector<int> got(data.size());
  const auto r = mc::scan_mppc<int>(cluster, part, data, got, n, plan,
                                    mc::ScanKind::kInclusive);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(got, reference_batch_scan<int>(data, n, g,
                                           mc::ScanKind::kInclusive));
  // No MPI and no host staging: every transfer stayed on P2P/self links,
  // so two nodes take about the time of one node with half the problems.
  auto c1 = mt::tsubame_kfc_cluster(1);
  const auto part1 = mc::make_mppc_partition(c1, 2, 2, g / 2, 1);
  const auto r1 = mc::scan_mppc<int>(c1, part1, data, got, n, plan,
                                     mc::ScanKind::kInclusive);
  EXPECT_NEAR(r.seconds, r1.seconds, 0.2 * r1.seconds);
}

TEST(Mppc, InPlaceMatchesReference) {
  // `out` may be `in` itself: each group scans its own rows in place.
  const std::int64_t n = 2 * 9999;  // partial chunks
  const std::int64_t g = 5;         // uneven split over the groups
  for (const auto kind : {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
    auto cluster = mt::tsubame_kfc_cluster(1);
    const auto part = mc::make_mppc_partition(cluster, 2, 2, g);
    const auto data =
        mgs::util::random_i32(static_cast<std::size_t>(n * g), 12);
    auto buf = data;
    mc::scan_mppc<int>(cluster, part, buf, buf, n, paper_plan(2), kind);
    EXPECT_EQ(buf, reference_batch_scan<int>(data, n, g, kind));
  }
}

TEST(MppcPerf, AvoidsHostStagingAndBeatsW8MpsAtLargeG) {
  // The paper's motivation for MP-PC: at large G the W=8 MPS drowns in
  // host-staged aux traffic, while MP-PC (W=8 as 2 x V=4 P2P groups)
  // keeps everything on PCIe networks.
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 256;
  const auto plan = paper_plan(2);

  auto c_mps = mt::tsubame_kfc_cluster(1);
  std::vector<int> gpus = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 3);
  std::vector<int> out(data.size());
  const auto r_mps = mc::scan_mps<int>(c_mps, gpus, data, out, n, g, plan,
                                       mc::ScanKind::kInclusive);

  auto c_pc = mt::tsubame_kfc_cluster(1);
  const auto part = mc::make_mppc_partition(c_pc, 2, 4, g);
  const auto r_pc = mc::scan_mppc<int>(c_pc, part, data, out, n, plan,
                                       mc::ScanKind::kInclusive);

  EXPECT_LT(r_pc.seconds, r_mps.seconds);
}

TEST(MppcPerf, GroupsRunConcurrently) {
  // Two groups over disjoint networks should take about one group's time
  // for half the work, not the sum (independent simulated clocks). Large
  // enough N*G that per-launch fixed costs do not mask the halving.
  const std::int64_t n = 1 << 21;
  const std::int64_t g = 8;
  const auto plan = paper_plan(8);

  auto c1 = mt::tsubame_kfc_cluster(1);
  const auto part1 = mc::make_mppc_partition(c1, 1, 4, g);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 4);
  std::vector<int> out(data.size());
  const auto one_group = mc::scan_mppc<int>(c1, part1, data, out, n, plan,
                                            mc::ScanKind::kInclusive);

  auto c2 = mt::tsubame_kfc_cluster(1);
  const auto part2 = mc::make_mppc_partition(c2, 2, 4, g);
  const auto two_groups = mc::scan_mppc<int>(c2, part2, data, out, n, plan,
                                             mc::ScanKind::kInclusive);

  // Each group now handles half the problems; with parallel groups the
  // makespan must drop to roughly half a single group's time.
  EXPECT_LT(two_groups.seconds, 0.75 * one_group.seconds);
}
