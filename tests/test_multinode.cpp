// Integration tests for the multi-node Scan-MPS proposal: correctness
// over M*W ranks, the Figure-14 breakdown phases, and Section 5.2's
// (M, W) combination observations.

#include <gtest/gtest.h>

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

/// Ranks for M nodes x W GPUs, filling PCIe networks first.
std::vector<int> ranks_for(const mt::Cluster& cluster, int m, int w) {
  std::vector<int> ids;
  for (int node = 0; node < m; ++node) {
    for (int i = 0; i < w; ++i) {
      const int network = i / cluster.config().gpus_per_network;
      const int slot = i % cluster.config().gpus_per_network;
      ids.push_back(cluster.global_id(node, network, slot));
    }
  }
  return ids;
}

mc::RunResult run_multinode(int m, int w, std::int64_t n, std::int64_t g,
                            mc::ScanKind kind, int k,
                            std::vector<int>* data_out = nullptr,
                            std::vector<int>* got = nullptr) {
  auto cluster = mt::tsubame_kfc_cluster(m);
  const auto plan = paper_plan(k);
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(n * g),
      static_cast<std::uint64_t>(n + m * 100 + w));
  std::vector<int> out(data.size());
  const auto r = mc::scan_mps<int>(cluster, ranks_for(cluster, m, w), data,
                                   out, n, g, plan, kind, {},
                                   mc::MpsGather::kMpi);
  if (got != nullptr) *got = std::move(out);
  if (data_out != nullptr) *data_out = data;
  return r;
}

}  // namespace

struct MnCase {
  int m;
  int w;
  std::int64_t n;
  std::int64_t g;
  mc::ScanKind kind;
};

class MultiNodeSweep : public ::testing::TestWithParam<MnCase> {};

TEST_P(MultiNodeSweep, MatchesReference) {
  const auto c = GetParam();
  std::vector<int> data, got;
  run_multinode(c.m, c.w, c.n, c.g, c.kind, 2, &data, &got);
  const auto want = reference_batch_scan<int>(data, c.n, c.g, c.kind);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "m=" << c.m << " w=" << c.w << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiNodeSweep,
    ::testing::Values(MnCase{2, 4, 1 << 16, 2, mc::ScanKind::kInclusive},
                      MnCase{2, 4, 1 << 16, 2, mc::ScanKind::kExclusive},
                      MnCase{2, 2, 1 << 14, 4, mc::ScanKind::kInclusive},
                      MnCase{4, 2, 1 << 15, 1, mc::ScanKind::kInclusive},
                      MnCase{2, 8, 1 << 17, 2, mc::ScanKind::kExclusive},
                      MnCase{8, 1, 1 << 16, 1, mc::ScanKind::kInclusive},
                      MnCase{2, 4, 8 * 4321, 3, mc::ScanKind::kInclusive}));

TEST(MultiNode, BreakdownHasFigure14Phases) {
  const auto r = run_multinode(2, 4, 1 << 18, 4, mc::ScanKind::kInclusive, 2);
  EXPECT_GT(r.breakdown.get("Stage1"), 0.0);
  EXPECT_GT(r.breakdown.get("Stage2"), 0.0);
  EXPECT_GT(r.breakdown.get("Stage3"), 0.0);
  EXPECT_GT(r.breakdown.get("MPI_Gather"), 0.0);
  EXPECT_GT(r.breakdown.get("MPI_Scatter"), 0.0);
  EXPECT_GT(r.breakdown.get("MPI_Barrier"), 0.0);
}

TEST(MultiNode, MpiOverheadRoughlyConstantInN) {
  // Section 5.2: "the MPI overhead is almost constant in spite of the
  // amount of data, while GPU computation time is proportional". With 64x
  // the data, the collectives must stay near-constant while the compute
  // stages grow severalfold (launch latency flattens the small end).
  const auto small = run_multinode(2, 4, 1 << 17, 1, mc::ScanKind::kInclusive, 4);
  const auto large = run_multinode(2, 4, 1 << 23, 1, mc::ScanKind::kInclusive, 4);
  const double mpi_small = small.breakdown.get("MPI_Gather") +
                           small.breakdown.get("MPI_Scatter") +
                           small.breakdown.get("MPI_Barrier");
  const double mpi_large = large.breakdown.get("MPI_Gather") +
                           large.breakdown.get("MPI_Scatter") +
                           large.breakdown.get("MPI_Barrier");
  EXPECT_LT(mpi_large / mpi_small, 3.0);  // near-constant
  EXPECT_GT(large.breakdown.get("Stage1"),
            2.5 * small.breakdown.get("Stage1"));  // compute scales with N
  // Consequence: total time grows far slower than the 64x data factor.
  EXPECT_LT(large.seconds, 32.0 * small.seconds);
}

TEST(MultiNode, CombinationStudyM2W4BeatsM8W1) {
  // Section 5.2: with 8 GPUs total, M=2 x W=4 beats M=8 x W=1, and the
  // gap narrows as N grows (1.48x at n=13 -> 1.03x at n=28).
  const std::int64_t small_n = 1 << 14;
  const std::int64_t big_n = 1 << 22;
  const auto g_of = [](std::int64_t n) { return (std::int64_t{1} << 24) / n; };

  const auto m2w4_small =
      run_multinode(2, 4, small_n, g_of(small_n), mc::ScanKind::kInclusive, 2);
  const auto m8w1_small =
      run_multinode(8, 1, small_n, g_of(small_n), mc::ScanKind::kInclusive, 2);
  const auto m2w4_big =
      run_multinode(2, 4, big_n, g_of(big_n), mc::ScanKind::kInclusive, 8);
  const auto m8w1_big =
      run_multinode(8, 1, big_n, g_of(big_n), mc::ScanKind::kInclusive, 8);

  const double gap_small = m8w1_small.seconds / m2w4_small.seconds;
  const double gap_big = m8w1_big.seconds / m2w4_big.seconds;
  EXPECT_GT(gap_small, 1.0);  // M=2,W=4 wins at small N
  EXPECT_LT(gap_big, gap_small);  // and the gap narrows at large N
}

TEST(MultiNode, RejectsShortSpans) {
  auto cluster = mt::tsubame_kfc_cluster(2);
  std::vector<int> in(1 << 16);
  std::vector<int> out(in.size());
  // Two problems of N elements do not fit in spans of one.
  EXPECT_THROW(mc::scan_mps<int>(cluster, ranks_for(cluster, 2, 4), in, out,
                                 1 << 16, 2, paper_plan(2),
                                 mc::ScanKind::kInclusive, {},
                                 mc::MpsGather::kMpi),
               mgs::util::Error);
}

TEST(MultiNode, DeterministicRuns) {
  const auto a = run_multinode(2, 4, 1 << 17, 2, mc::ScanKind::kInclusive, 2);
  const auto b = run_multinode(2, 4, 1 << 17, 2, mc::ScanKind::kInclusive, 2);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
}
