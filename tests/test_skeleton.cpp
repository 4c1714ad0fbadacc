// Unit tests for the computational skeletons (Section 3.1 machinery):
// tile reduce, tile scan, the cascade loop and the stage-2 row scan,
// exercised directly through hand-built block contexts.

#include <gtest/gtest.h>

#include <numeric>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/kernels.hpp"
#include "mgs/core/skeleton.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace st = mgs::simt;
using mgs::baselines::reference_scan;
using mgs::core::Plus;
using mgs::core::ScanKind;

namespace {

st::Device make_device() { return st::Device(0, mgs::sim::k80_spec()); }

mc::StagePlan paper_plan(int k = 1) {
  mc::StagePlan sp;
  sp.p = 8;
  sp.lx = 128;
  sp.ly = 1;
  sp.k = k;
  return sp;
}

/// Run `fn` inside a single-block launch so a real BlockCtx exists.
template <typename Fn>
void in_block(st::Device& dev, std::int64_t smem_bytes, Fn&& fn) {
  st::LaunchConfig cfg;
  cfg.name = "test_block";
  cfg.grid = {1, 1, 1};
  cfg.block = {128, 1, 1};
  cfg.regs_per_thread = 64;
  cfg.smem_per_block = smem_bytes;
  st::launch(dev, cfg, fn);
}

}  // namespace

TEST(Skeleton, ReduceTileFullAndPartial) {
  auto dev = make_device();
  const auto sp = paper_plan();
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(sp.tile()), 1);
  auto buf = dev.alloc<int>(sp.tile());
  std::copy(data.begin(), data.end(), buf.host_span().begin());
  const auto view = buf.view();

  for (std::int64_t len : {sp.tile(), std::int64_t{1}, std::int64_t{100},
                           std::int64_t{129}, sp.tile() - 1}) {
    in_block(dev, 64, [&](st::BlockCtx& ctx) {
      const int got = mc::reduce_tile(ctx, view, 0, len, sp, Plus<int>{});
      const int want = std::accumulate(data.begin(),
                                       data.begin() + static_cast<std::ptrdiff_t>(len), 0);
      EXPECT_EQ(got, want) << "len=" << len;
    });
  }
}

TEST(Skeleton, ScanTileInclusiveMatchesReference) {
  auto dev = make_device();
  const auto sp = paper_plan();
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(sp.tile()), 2);
  auto in = dev.alloc<int>(sp.tile());
  auto out = dev.alloc<int>(sp.tile());
  std::copy(data.begin(), data.end(), in.host_span().begin());

  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    auto smem = ctx.shared<int>(sp.warps());
    const int total = mc::scan_tile(ctx, in.view(), out.view(), 0, sp.tile(),
                                    sp, 0, ScanKind::kInclusive, Plus<int>{},
                                    smem);
    EXPECT_EQ(total, std::accumulate(data.begin(), data.end(), 0));
  });
  std::vector<int> want(data.size());
  reference_scan<int>(data, want, ScanKind::kInclusive);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out.host_span()[i], want[i]) << "i=" << i;
  }
}

TEST(Skeleton, ScanTileExclusiveWithCarry) {
  auto dev = make_device();
  const auto sp = paper_plan();
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(sp.tile()), 3);
  auto in = dev.alloc<int>(sp.tile());
  auto out = dev.alloc<int>(sp.tile());
  std::copy(data.begin(), data.end(), in.host_span().begin());

  const int carry = 1000;
  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    auto smem = ctx.shared<int>(sp.warps());
    mc::scan_tile(ctx, in.view(), out.view(), 0, sp.tile(), sp, carry,
                  ScanKind::kExclusive, Plus<int>{}, smem);
  });
  int acc = carry;
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(out.host_span()[i], acc) << "i=" << i;
    acc += data[i];
  }
}

TEST(Skeleton, ScanTilePartialLengths) {
  auto dev = make_device();
  const auto sp = paper_plan();
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(sp.tile()), 4);
  auto in = dev.alloc<int>(sp.tile());
  auto out = dev.alloc<int>(sp.tile());
  std::copy(data.begin(), data.end(), in.host_span().begin());

  for (std::int64_t len : {std::int64_t{1}, std::int64_t{31}, std::int64_t{32},
                           std::int64_t{127}, std::int64_t{128},
                           std::int64_t{500}, sp.tile() - 3}) {
    in_block(dev, 64, [&](st::BlockCtx& ctx) {
      auto smem = ctx.shared<int>(sp.warps());
      mc::scan_tile(ctx, in.view(), out.view(), 0, len, sp, 0,
                    ScanKind::kInclusive, Plus<int>{}, smem);
    });
    int acc = 0;
    for (std::int64_t i = 0; i < len; ++i) {
      acc += data[static_cast<std::size_t>(i)];
      ASSERT_EQ(out.host_span()[static_cast<std::size_t>(i)], acc)
          << "len=" << len << " i=" << i;
    }
  }
}

TEST(Skeleton, CascadeChainsAcrossIterations) {
  auto dev = make_device();
  const auto sp = paper_plan(/*k=*/4);  // chunk of 4 tiles
  const std::int64_t n = sp.chunk();
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 5);
  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  std::copy(data.begin(), data.end(), in.host_span().begin());

  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    auto smem = ctx.shared<int>(sp.warps());
    const int total = mc::cascade_scan(ctx, in.view(), out.view(), 0, n, sp,
                                       0, ScanKind::kInclusive, Plus<int>{},
                                       smem);
    EXPECT_EQ(total, std::accumulate(data.begin(), data.end(), 0));
    EXPECT_EQ(mc::cascade_reduce(ctx, in.view(), 0, n, sp, Plus<int>{}),
              total);
  });
  std::vector<int> want(data.size());
  reference_scan<int>(data, want, ScanKind::kInclusive);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out.host_span()[i], want[i]) << "i=" << i;
  }
}

TEST(Skeleton, CascadeHandlesPartialFinalTile) {
  auto dev = make_device();
  const auto sp = paper_plan(/*k=*/2);
  const std::int64_t n = sp.tile() + 77;  // second iteration partial
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 6);
  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  std::copy(data.begin(), data.end(), in.host_span().begin());

  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    auto smem = ctx.shared<int>(sp.warps());
    mc::cascade_scan(ctx, in.view(), out.view(), 0, n, sp, 0,
                     ScanKind::kInclusive, Plus<int>{}, smem);
  });
  int acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    acc += data[static_cast<std::size_t>(i)];
    ASSERT_EQ(out.host_span()[static_cast<std::size_t>(i)], acc);
  }
}

TEST(Skeleton, WorksWithMaxOperator) {
  auto dev = make_device();
  const auto sp = paper_plan(2);
  const std::int64_t n = sp.chunk();
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 7, -1000, 1000);
  auto in = dev.alloc<int>(n);
  auto out = dev.alloc<int>(n);
  std::copy(data.begin(), data.end(), in.host_span().begin());

  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    auto smem = ctx.shared<int>(sp.warps());
    mc::cascade_scan(ctx, in.view(), out.view(), 0, n, sp, mc::Max<int>::identity(),
                     ScanKind::kInclusive, mc::Max<int>{}, smem);
  });
  int acc = mc::Max<int>::identity();
  for (std::int64_t i = 0; i < n; ++i) {
    acc = std::max(acc, data[static_cast<std::size_t>(i)]);
    ASSERT_EQ(out.host_span()[static_cast<std::size_t>(i)], acc);
  }
}

TEST(Skeleton, RowScanExclusive) {
  auto dev = make_device();
  const std::int64_t len = 100;  // not a multiple of the warp
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(len), 8);
  auto buf = dev.alloc<int>(len);
  std::copy(data.begin(), data.end(), buf.host_span().begin());
  const auto view = buf.view();

  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    mc::warp_row_scan_exclusive_carry<int>(
        ctx, len,
        [&](std::int64_t i0, int cnt) {
          return view.load_warp_partial(i0, cnt, 0, ctx.stats());
        },
        [&](std::int64_t i0, int cnt, const st::WarpReg<int>& v) {
          view.store_warp_partial(i0, cnt, v, ctx.stats());
        },
        Plus<int>{}, 0);
  });
  int acc = 0;
  for (std::int64_t i = 0; i < len; ++i) {
    ASSERT_EQ(buf.host_span()[static_cast<std::size_t>(i)], acc);
    acc += data[static_cast<std::size_t>(i)];
  }
}

TEST(Skeleton, Int4LoadsAreCoalesced) {
  // The full-quad path must issue exactly ideal transaction counts; that
  // is the point of the paper's int4 loads.
  auto dev = make_device();
  const auto sp = paper_plan();
  auto in = dev.alloc<int>(sp.tile());
  auto out = dev.alloc<int>(sp.tile());
  mgs::sim::KernelStats observed;
  in_block(dev, 64, [&](st::BlockCtx& ctx) {
    auto smem = ctx.shared<int>(sp.warps());
    mc::scan_tile(ctx, in.view(), out.view(), 0, sp.tile(), sp, 0,
                  ScanKind::kInclusive, Plus<int>{}, smem);
    observed = ctx.stats();
  });
  const std::uint64_t ideal_txns =
      (observed.bytes_read + observed.bytes_written) / 32;
  EXPECT_EQ(observed.mem_transactions, ideal_txns);
}
