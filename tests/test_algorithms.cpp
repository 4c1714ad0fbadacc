// Tests for the device-side utility kernels (simt/algorithms.hpp) and the
// batched reduction primitive (core/reduce.hpp).

#include <gtest/gtest.h>

#include <numeric>

#include "mgs/core/reduce.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/simt/algorithms.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace st = mgs::simt;

namespace {
st::Device make_device() { return st::Device(0, mgs::sim::k80_spec()); }
}  // namespace

TEST(Algorithms, FillAndIota) {
  auto dev = make_device();
  auto buf = dev.alloc<int>(10000);
  st::fill(dev, buf, 42);
  for (int x : buf.host_span()) ASSERT_EQ(x, 42);
  st::iota(dev, buf, 7);
  for (std::int64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(buf.host_span()[static_cast<std::size_t>(i)], 7 + i);
  }
}

TEST(Algorithms, TransformElementwise) {
  auto dev = make_device();
  auto in = dev.alloc<int>(5000);
  auto out = dev.alloc<std::int64_t>(5000);
  st::iota(dev, in, 0);
  st::transform(dev, in, out, [](int x) {
    return static_cast<std::int64_t>(x) * x;
  });
  for (std::int64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(out.host_span()[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Algorithms, GatherScatterRoundTrip) {
  auto dev = make_device();
  const std::int64_t n = 4096;
  auto src = dev.alloc<int>(n);
  auto idx = dev.alloc<std::int64_t>(n);
  auto mid = dev.alloc<int>(n);
  auto dst = dev.alloc<int>(n);
  st::iota(dev, src, 100);
  // Reversal permutation.
  for (std::int64_t i = 0; i < n; ++i) {
    idx.host_span()[static_cast<std::size_t>(i)] = n - 1 - i;
  }
  st::gather(dev, src, idx, mid);  // mid[i] = src[n-1-i]
  EXPECT_EQ(mid.host_span()[0], 100 + static_cast<int>(n) - 1);
  st::scatter(dev, mid, idx, dst);  // dst[n-1-i] = mid[i] -> dst == src
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(dst.host_span()[static_cast<std::size_t>(i)],
              src.host_span()[static_cast<std::size_t>(i)]);
  }
}

TEST(Algorithms, GatherIsUncoalescedInTheModel) {
  auto dev = make_device();
  const std::int64_t n = 1 << 16;
  auto a = dev.alloc<int>(n);
  auto idx = dev.alloc<std::int64_t>(n);
  auto b = dev.alloc<int>(n);
  st::iota(dev, idx, std::int64_t{0});
  const auto t_gather = st::gather(dev, a, idx, b);
  const auto t_copy = st::transform(dev, a, b, [](int x) { return x; });
  // Scalar indexed accesses cost several times the coalesced copy.
  EXPECT_GT(t_gather.seconds, 3.0 * t_copy.seconds);
  EXPECT_LT(t_gather.coalescing, 0.5);
  EXPECT_GT(t_copy.coalescing, 0.9);
}

TEST(Algorithms, TransposeCorrectAndCoalesced) {
  auto dev = make_device();
  const std::int64_t w = 100, h = 70;  // non-multiple-of-tile shape
  auto in = dev.alloc<int>(w * h);
  auto out = dev.alloc<int>(w * h);
  st::iota(dev, in, 0);
  const auto t = st::transpose(dev, in, out, w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      ASSERT_EQ(out.host_span()[static_cast<std::size_t>(x * h + y)],
                static_cast<int>(y * w + x));
    }
  }
  EXPECT_GT(t.coalescing, 0.8);  // tiled: both sides coalesced
}

TEST(Algorithms, TransposeTwiceIsIdentity) {
  auto dev = make_device();
  const std::int64_t w = 257, h = 129;
  auto a = dev.alloc<int>(w * h);
  auto b = dev.alloc<int>(w * h);
  auto c = dev.alloc<int>(w * h);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(w * h), 3);
  std::copy(data.begin(), data.end(), a.host_span().begin());
  st::transpose(dev, a, b, w, h);
  st::transpose(dev, b, c, h, w);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(c.host_span()[i], data[i]);
  }
}

TEST(Algorithms, ArgumentValidation) {
  auto dev = make_device();
  auto empty = dev.alloc<int>(0);
  auto small = dev.alloc<int>(4);
  auto big = dev.alloc<int>(64);
  EXPECT_THROW(st::fill(dev, empty, 0), mgs::util::Error);
  EXPECT_THROW(st::transform(dev, big, small, [](int x) { return x; }),
               mgs::util::Error);
  EXPECT_THROW(st::transpose(dev, big, big, 9, 9), mgs::util::Error);
}

// ---- Batched reduction -------------------------------------------------

struct ReduceCase {
  std::int64_t n;
  std::int64_t g;
  int k;
};

class ReduceSweep : public ::testing::TestWithParam<ReduceCase> {};

TEST_P(ReduceSweep, MatchesSerialTotals) {
  const auto c = GetParam();
  auto dev = make_device();
  auto plan = mc::derive_spl(dev.spec(), 4).plan;
  plan.s13.k = c.k;
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(c.n * c.g), static_cast<std::uint64_t>(c.n));
  auto in = dev.alloc<int>(c.n * c.g);
  auto out = dev.alloc<int>(c.g);
  std::copy(data.begin(), data.end(), in.host_span().begin());

  const auto r = mc::reduce_sp<int>(dev, in, out, c.n, c.g, plan.s13);
  EXPECT_GT(r.seconds, 0.0);
  for (std::int64_t p = 0; p < c.g; ++p) {
    const int want = std::accumulate(
        data.begin() + static_cast<std::ptrdiff_t>(p * c.n),
        data.begin() + static_cast<std::ptrdiff_t>((p + 1) * c.n), 0);
    ASSERT_EQ(out.host_span()[static_cast<std::size_t>(p)], want) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReduceSweep,
                         ::testing::Values(ReduceCase{1 << 14, 1, 1},
                                           ReduceCase{1 << 12, 16, 2},
                                           ReduceCase{999, 7, 1},
                                           ReduceCase{100000, 3, 4},
                                           ReduceCase{1, 5, 1}));

TEST(Reduce, MaxOperator) {
  auto dev = make_device();
  auto plan = mc::derive_spl(dev.spec(), 4).plan;
  const std::int64_t n = 30000;
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(n), 9, -10000, 10000);
  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(1);
  std::copy(data.begin(), data.end(), in.host_span().begin());
  mc::reduce_sp<int, mc::Max<int>>(dev, in, out, n, 1, plan.s13);
  EXPECT_EQ(out.host_span()[0], *std::max_element(data.begin(), data.end()));
}

TEST(Reduce, HalfTheTrafficOfAScan) {
  // Reduction reads N once and writes almost nothing; the scan moves 2N.
  auto dev = make_device();
  auto plan = mc::derive_spl(dev.spec(), 4).plan;
  plan.s13.k = 4;
  const std::int64_t n = 1 << 20;
  auto in = dev.alloc<int>(n);
  auto out1 = dev.alloc<int>(1);
  std::vector<int> out_scan(static_cast<std::size_t>(n));
  const auto r_reduce = mc::reduce_sp<int>(dev, in, out1, n, 1, plan.s13);
  const auto r_scan = mc::scan_sp<int>(dev, in.host_span(), out_scan, n, 1,
                                       plan, mc::ScanKind::kInclusive);
  EXPECT_LT(r_reduce.seconds, 0.7 * r_scan.seconds);
}

TEST(Reduce, ArgumentValidation) {
  auto dev = make_device();
  auto plan = mc::derive_spl(dev.spec(), 4).plan;
  auto in = dev.alloc<int>(64);
  auto out = dev.alloc<int>(1);
  EXPECT_THROW(mc::reduce_sp<int>(dev, in, out, 64, 2, plan.s13),
               mgs::util::Error);  // out too small for G=2
  EXPECT_THROW(mc::reduce_sp<int>(dev, in, out, 0, 1, plan.s13),
               mgs::util::Error);
}
