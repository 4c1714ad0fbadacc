// Property-based tests: randomized shapes and inputs, checking invariants
// that must hold for every scan implementation in the repository --
// proposal/baseline agreement, linearity, prefix monotonicity, and
// inclusive/exclusive duality.

#include <gtest/gtest.h>

#include "mgs/baselines/reference.hpp"
#include "mgs/baselines/registry.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace mb = mgs::baselines;
namespace st = mgs::simt;

namespace {

mc::ScanPlan plan_with_k(int k) {
  auto plan = mc::derive_spl(mgs::sim::k80_spec(), 4).plan;
  plan.s13.k = k;
  return plan;
}

std::vector<int> run_sp(const std::vector<int>& data, std::int64_t n,
                        std::int64_t g, mc::ScanKind kind, int k) {
  st::Device dev(0, mgs::sim::k80_spec());
  std::vector<int> out(data.size());
  mc::scan_sp<int>(dev, data, out, n, g, plan_with_k(k), kind);
  return out;
}

}  // namespace

// Invariant 1: for random (n, g, k, kind), Scan-SP == serial reference.
TEST(Property, RandomShapesMatchReference) {
  mgs::util::SplitMix64 rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.next_below(40000));
    const std::int64_t g = 1 + static_cast<std::int64_t>(rng.next_below(6));
    const int k = 1 << rng.next_below(4);
    const auto kind = (rng.next() & 1) ? mc::ScanKind::kInclusive
                                       : mc::ScanKind::kExclusive;
    const auto data = mgs::util::random_i32(
        static_cast<std::size_t>(n * g), rng.next());
    const auto got = run_sp(data, n, g, kind, k);
    const auto want = mb::reference_batch_scan<int>(data, n, g, kind);
    ASSERT_EQ(got, want) << "trial=" << trial << " n=" << n << " g=" << g
                         << " k=" << k;
  }
}

// Invariant 2: inclusive/exclusive duality --
// inclusive[i] == op(exclusive[i], in[i]).
TEST(Property, InclusiveExclusiveDuality) {
  mgs::util::SplitMix64 rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t n = 500 + static_cast<std::int64_t>(rng.next_below(20000));
    const auto data =
        mgs::util::random_i32(static_cast<std::size_t>(n), rng.next());
    const auto inc = run_sp(data, n, 1, mc::ScanKind::kInclusive, 2);
    const auto exc = run_sp(data, n, 1, mc::ScanKind::kExclusive, 2);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(inc[static_cast<std::size_t>(i)],
                exc[static_cast<std::size_t>(i)] +
                    data[static_cast<std::size_t>(i)]);
    }
  }
}

// Invariant 3: linearity of the plus-scan -- scan(a+b) == scan(a)+scan(b).
TEST(Property, PlusScanIsLinear) {
  const std::int64_t n = 30000;
  const auto a = mgs::util::random_i32(static_cast<std::size_t>(n), 1, -20, 20);
  const auto b = mgs::util::random_i32(static_cast<std::size_t>(n), 2, -20, 20);
  std::vector<int> sum(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) sum[i] = a[i] + b[i];
  const auto sa = run_sp(a, n, 1, mc::ScanKind::kInclusive, 2);
  const auto sb = run_sp(b, n, 1, mc::ScanKind::kInclusive, 2);
  const auto ss = run_sp(sum, n, 1, mc::ScanKind::kInclusive, 2);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(ss[i], sa[i] + sb[i]);
  }
}

// Invariant 4: max-scan output is monotone non-decreasing and ends at the
// global max.
TEST(Property, MaxScanMonotone) {
  st::Device dev(0, mgs::sim::k80_spec());
  const std::int64_t n = 25000;
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 5,
                                          -100000, 100000);
  std::vector<int> out(data.size());
  mc::scan_sp<int, mc::Max<int>>(dev, data, out, n, 1, plan_with_k(2),
                                 mc::ScanKind::kInclusive);
  int prev = out[0];
  for (std::int64_t i = 1; i < n; ++i) {
    const int cur = out[static_cast<std::size_t>(i)];
    ASSERT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_EQ(prev, *std::max_element(data.begin(), data.end()));
}

// Invariant 5: all scan implementations in the repo agree bit-for-bit
// (proposals and baselines compute the same function).
TEST(Property, AllImplementationsAgree) {
  const std::int64_t n = 1 << 14;
  const std::int64_t g = 3;
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 9);
  const auto want = mb::reference_batch_scan<int>(data, n, g,
                                                  mc::ScanKind::kInclusive);

  // Scan-SP.
  EXPECT_EQ(run_sp(data, n, g, mc::ScanKind::kInclusive, 2), want);

  // Scan-MPS over 4 GPUs.
  auto cluster = mgs::topo::tsubame_kfc_cluster(1);
  std::vector<int> gpus = {0, 1, 2, 3};
  std::vector<int> got(data.size());
  mc::scan_mps<int>(cluster, gpus, data, got, n, g, plan_with_k(2),
                    mc::ScanKind::kInclusive);
  EXPECT_EQ(got, want);

  // Every baseline library model.
  for (const auto& b : mb::all_baselines()) {
    st::Device dev(0, mgs::sim::k80_spec());
    auto in = dev.alloc<std::int32_t>(n * g);
    auto out = dev.alloc<std::int32_t>(n * g);
    std::copy(data.begin(), data.end(), in.host_span().begin());
    b.run_batch(dev, in, out, n, g, mc::ScanKind::kInclusive);
    const std::vector<int> got(out.host_span().begin(),
                               out.host_span().end());
    EXPECT_EQ(got, want) << b.traits.name;
  }
}

// Invariant 6: scanning a batch of G problems equals scanning each
// problem alone (no leakage across the batch dimension).
TEST(Property, BatchIndependence) {
  const std::int64_t n = 4097;
  const std::int64_t g = 5;
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n * g), 13);
  const auto batch = run_sp(data, n, g, mc::ScanKind::kInclusive, 2);
  for (std::int64_t p = 0; p < g; ++p) {
    const std::vector<int> one(
        data.begin() + static_cast<std::ptrdiff_t>(p * n),
        data.begin() + static_cast<std::ptrdiff_t>((p + 1) * n));
    const auto solo = run_sp(one, n, 1, mc::ScanKind::kInclusive, 2);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch[static_cast<std::size_t>(p * n + i)],
                solo[static_cast<std::size_t>(i)])
          << "p=" << p << " i=" << i;
    }
  }
}

// Invariant 7: every multi-GPU proposal computes exactly what Scan-SP
// computes, for random shapes, W, and scan kinds (differential testing
// across the proposal family).
TEST(Property, ProposalsAgreeOnRandomShapes) {
  mgs::util::SplitMix64 rng(71);
  for (int trial = 0; trial < 8; ++trial) {
    const int w = 1 << rng.next_below(3);            // 1, 2 or 4 GPUs
    const std::int64_t n =
        w * (512 + static_cast<std::int64_t>(rng.next_below(8000)));
    const std::int64_t g = 1 + static_cast<std::int64_t>(rng.next_below(4));
    const auto kind = (rng.next() & 1) ? mc::ScanKind::kInclusive
                                       : mc::ScanKind::kExclusive;
    const auto data =
        mgs::util::random_i32(static_cast<std::size_t>(n * g), rng.next());
    const auto want = run_sp(data, n, g, kind, 2);

    auto cluster = mgs::topo::tsubame_kfc_cluster(1);
    std::vector<int> gpus;
    for (int d = 0; d < w; ++d) gpus.push_back(d);
    std::vector<int> got(data.size());
    mc::scan_mps<int>(cluster, gpus, data, got, n, g, plan_with_k(2), kind);
    ASSERT_EQ(got, want) << "trial=" << trial << " w=" << w << " n=" << n
                         << " g=" << g;

    auto c2 = mgs::topo::tsubame_kfc_cluster(1);
    std::vector<int> got2(data.size());
    mc::scan_mps<int>(c2, gpus, data, got2, n, g, plan_with_k(2), kind, {},
                      mc::MpsGather::kPeerWrites);
    ASSERT_EQ(got2, want) << "direct trial=" << trial;
  }
}

// Invariant 8: modeled time is invariant to the input *values* (the scan
// is data-oblivious), so perf results cannot depend on the seed.
TEST(Property, ModeledTimeDataOblivious) {
  const std::int64_t n = 1 << 15;
  st::Device dev1(0, mgs::sim::k80_spec());
  const auto d1 = mgs::util::random_i32(static_cast<std::size_t>(n), 1);
  std::vector<int> out1(d1.size());
  const auto r1 = mc::scan_sp<int>(dev1, d1, out1, n, 1, plan_with_k(2),
                                   mc::ScanKind::kInclusive);

  st::Device dev2(0, mgs::sim::k80_spec());
  const auto d2 = mgs::util::random_i32(static_cast<std::size_t>(n), 999);
  std::vector<int> out2(d2.size());
  const auto r2 = mc::scan_sp<int>(dev2, d2, out2, n, 1, plan_with_k(2),
                                   mc::ScanKind::kInclusive);

  EXPECT_DOUBLE_EQ(r1.seconds, r2.seconds);
}
