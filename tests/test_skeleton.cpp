// Unit tests for the computational skeletons (Section 3.1 machinery):
// tile reduce, tile scan, the cascade loop and the stage-2 row scan,
// exercised directly through hand-built block contexts.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/kernels.hpp"
#include "mgs/core/segmented.hpp"
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

// ------------------------------------------------- warp-register oracle

namespace oracle {

// The tile bodies as first written: one WarpReg<Vec4> per quad, the
// instrumented per-access loads and stores, and the charged warp
// primitives. scan_tile/reduce_tile above must reproduce them bit for bit
// and counter for counter.

template <typename T, typename Op>
st::WarpReg<st::Vec4<T>> load_quad(st::BlockCtx& ctx,
                                   const st::GlobalView<T>& in,
                                   std::int64_t base, int valid, Op) {
  if (valid == mc::kQuadSpan) return in.load4_warp(base, ctx.stats());
  st::WarpReg<st::Vec4<T>> r;
  for (int l = 0; l < st::kWarpSize; ++l) {
    for (int i = 0; i < 4; ++i) {
      const int e = 4 * l + i;
      r[l][i] = (e < valid) ? in.load(base + e, ctx.stats()) : Op::identity();
    }
  }
  return r;
}

template <typename T>
void store_quad(st::BlockCtx& ctx, const st::GlobalView<T>& out,
                std::int64_t base, int valid,
                const st::WarpReg<st::Vec4<T>>& v) {
  if (valid == mc::kQuadSpan) {
    out.store4_warp(base, v, ctx.stats());
    return;
  }
  for (int l = 0; l < st::kWarpSize; ++l) {
    for (int i = 0; i < 4; ++i) {
      const int e = 4 * l + i;
      if (e < valid) out.store(base + e, v[l][i], ctx.stats());
    }
  }
}

template <typename T, typename Op>
T reduce_tile(st::BlockCtx& ctx, const st::GlobalView<T>& in,
              std::int64_t base, std::int64_t valid, const mc::StagePlan& sp,
              Op op) {
  const int nw = sp.warps();
  const int quads = sp.p / 4;
  T tile_total = Op::identity();
  for (int w = 0; w < nw; ++w) {
    T warp_total = Op::identity();
    for (int q = 0; q < quads; ++q) {
      const std::int64_t off =
          static_cast<std::int64_t>(w) * sp.p * st::kWarpSize +
          static_cast<std::int64_t>(q) * mc::kQuadSpan;
      if (off >= valid) break;
      const int qvalid =
          static_cast<int>(std::min<std::int64_t>(mc::kQuadSpan, valid - off));
      const auto v = load_quad(ctx, in, base + off, qvalid, op);
      st::WarpReg<T> lane_sum;
      for (int l = 0; l < st::kWarpSize; ++l) {
        lane_sum[l] = op(op(v[l].x, v[l].y), op(v[l].z, v[l].w));
      }
      ctx.count_alu(3 * st::kWarpSize);
      warp_total = op(warp_total, st::warp_reduce(lane_sum, op, ctx.stats()));
    }
    tile_total = op(tile_total, warp_total);
    ctx.count_alu(2);
  }
  ctx.sync();
  return tile_total;
}

template <typename T>
struct QuadState {
  st::WarpReg<st::Vec4<T>> inc;
  st::WarpReg<T> lane_excl;
  std::int64_t base = 0;
  int valid = 0;
};

template <typename T, typename Op>
T scan_tile(st::BlockCtx& ctx, const st::GlobalView<T>& in,
            const st::GlobalView<T>& out, std::int64_t base,
            std::int64_t valid, const mc::StagePlan& sp, T carry,
            ScanKind kind, Op op, std::span<T> smem_partials) {
  const int nw = sp.warps();
  const int quads = sp.p / 4;
  std::vector<QuadState<T>> state(static_cast<std::size_t>(nw) * quads);
  T last_warp_total = Op::identity();
  for (int w = 0; w < nw; ++w) {
    T chain = Op::identity();
    for (int q = 0; q < quads; ++q) {
      auto& s = state[static_cast<std::size_t>(w) * quads + q];
      const std::int64_t off =
          static_cast<std::int64_t>(w) * sp.p * st::kWarpSize +
          static_cast<std::int64_t>(q) * mc::kQuadSpan;
      s.base = base + off;
      s.valid = (off >= valid)
                    ? 0
                    : static_cast<int>(
                          std::min<std::int64_t>(mc::kQuadSpan, valid - off));
      if (s.valid == 0) continue;
      s.inc = load_quad(ctx, in, s.base, s.valid, op);
      st::WarpReg<T> lane_tot;
      for (int l = 0; l < st::kWarpSize; ++l) {
        lane_tot[l] =
            st::thread_scan_inclusive(&s.inc[l].x, 4, op, ctx.stats());
      }
      st::WarpReg<T> excl = lane_tot;
      st::warp_scan_exclusive(excl, op, ctx.stats());
      const T quad_total =
          op(excl[st::kWarpSize - 1], lane_tot[st::kWarpSize - 1]);
      for (int l = 0; l < st::kWarpSize; ++l) {
        s.lane_excl[l] = op(chain, excl[l]);
      }
      ctx.count_alu(st::kWarpSize + 1);
      chain = op(chain, quad_total);
    }
    last_warp_total = chain;
    smem_partials[static_cast<std::size_t>(w)] = chain;
  }
  ctx.sync();
  st::WarpReg<T> partials;
  for (int l = 0; l < st::kWarpSize; ++l) {
    partials[l] = (l < nw) ? smem_partials[static_cast<std::size_t>(l)]
                           : Op::identity();
  }
  st::warp_scan_exclusive(partials, op, ctx.stats());
  const T tile_total = op(partials[nw - 1], last_warp_total);
  ctx.sync();
  for (int w = 0; w < nw; ++w) {
    const T wprefix = op(carry, partials[w]);
    for (int q = 0; q < quads; ++q) {
      const auto& s = state[static_cast<std::size_t>(w) * quads + q];
      if (s.valid == 0) continue;
      st::WarpReg<st::Vec4<T>> result;
      for (int l = 0; l < st::kWarpSize; ++l) {
        const T prefix = op(wprefix, s.lane_excl[l]);
        if (kind == ScanKind::kInclusive) {
          for (int i = 0; i < 4; ++i) result[l][i] = op(prefix, s.inc[l][i]);
        } else {
          result[l][0] = prefix;
          for (int i = 1; i < 4; ++i) {
            result[l][i] = op(prefix, s.inc[l][i - 1]);
          }
        }
      }
      ctx.count_alu(5 * st::kWarpSize);
      store_quad(ctx, out, s.base, s.valid, result);
    }
  }
  return tile_total;
}

}  // namespace oracle

namespace {

/// Inputs that make a swapped operand visible: small integers, and for
/// floats signed zeros everywhere plus NaNs under max/min (std::max and
/// std::min return their first operand on ties and unordered pairs).
template <typename T>
std::vector<T> oracle_input(std::size_t count, std::uint64_t seed,
                            bool nans) {
  mgs::util::SplitMix64 rng(seed);
  std::vector<T> v(count);
  for (auto& x : v) {
    const std::uint64_t r = rng.next();
    if constexpr (std::is_floating_point_v<T>) {
      switch (r % 8) {
        case 0: x = T(-0.0); break;
        case 1: x = T(0.0); break;
        case 2:
          x = nans ? std::numeric_limits<T>::quiet_NaN() : T(-0.0);
          break;
        default:
          x = static_cast<T>(static_cast<double>(r >> 40) / 4096.0 - 2048.0);
      }
    } else {
      x = static_cast<T>(static_cast<std::int64_t>(r >> 53) - 1024);
    }
  }
  return v;
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_stats(const mgs::sim::KernelStats& a,
                const mgs::sim::KernelStats& b) {
  return a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.mem_transactions == b.mem_transactions && a.alu_ops == b.alu_ops;
}

/// One tile body run in its own single-block launch; returns the block's
/// counters.
template <typename Fn>
mgs::sim::KernelStats run_block(st::Device& dev, int lx,
                                std::int64_t smem_bytes, Fn&& fn) {
  st::LaunchConfig cfg;
  cfg.name = "oracle_block";
  cfg.block = {lx, 1, 1};
  cfg.regs_per_thread = 32;
  cfg.smem_per_block = smem_bytes;
  mgs::sim::KernelStats stats;
  st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
    fn(ctx);
    stats = ctx.stats();
  });
  return stats;
}

/// A non-associative, non-commutative operator: any regrouping, reordering
/// or operand swap in a tile body changes the result, not just the ones
/// that happen to perturb float rounding. 0 is only a left identity, so
/// the bodies' identity operands must sit where the oracle's do too.
struct LeftTriple {
  using value_type = std::uint32_t;
  static constexpr std::uint32_t identity() { return 0; }
  constexpr std::uint32_t operator()(std::uint32_t a, std::uint32_t b) const {
    return 3 * a + b;
  }
};

/// Every (P, Lx, valid, kind) case of one (T, Op) cell against the oracle:
/// reduce and scan totals and outputs bit for bit, all four counters.
template <typename T, typename Op>
void check_cell(const char* cell) {
  constexpr bool kNans = !std::is_same_v<Op, Plus<T>>;
  Op op;
  auto dev = make_device();
  for (int p : {4, 8, 16}) {
    for (int lx : {32, 128, 1024}) {
      mc::StagePlan sp;
      sp.p = p;
      sp.lx = lx;
      const std::int64_t tile = sp.tile();
      // The tile sits at an offset so base arithmetic is exercised too.
      const std::int64_t base = 64;
      const auto data = oracle_input<T>(
          static_cast<std::size_t>(base + tile),
          static_cast<std::uint64_t>(p * 7919 + lx), kNans);
      auto in = dev.alloc<T>(base + tile);
      std::copy(data.begin(), data.end(), in.host_span().begin());
      auto out_new = dev.alloc<T>(base + tile);
      auto out_old = dev.alloc<T>(base + tile);
      const T carry = data[3];
      const std::int64_t smem =
          sp.smem_bytes(static_cast<int>(sizeof(T)));
      for (std::int64_t valid :
           {std::int64_t{0}, std::int64_t{1}, std::int64_t{127},
            std::int64_t{128}, std::int64_t{129}, tile - 1, tile}) {
        if (valid > tile) continue;
        const std::string where = std::string(cell) +
                                  " p=" + std::to_string(p) +
                                  " lx=" + std::to_string(lx) +
                                  " valid=" + std::to_string(valid);
        T got{};
        T want{};
        const auto s_new = run_block(dev, lx, smem, [&](st::BlockCtx& ctx) {
          got = mc::reduce_tile(ctx, in.view(), base, valid, sp, op);
        });
        const auto s_old = run_block(dev, lx, smem, [&](st::BlockCtx& ctx) {
          want = oracle::reduce_tile(ctx, in.view(), base, valid, sp, op);
        });
        EXPECT_TRUE(same_bits(got, want)) << "reduce " << where;
        EXPECT_TRUE(same_stats(s_new, s_old)) << "reduce stats " << where;

        for (const ScanKind kind :
             {ScanKind::kInclusive, ScanKind::kExclusive}) {
          std::fill(out_new.host_span().begin(), out_new.host_span().end(),
                    T{});
          std::fill(out_old.host_span().begin(), out_old.host_span().end(),
                    T{});
          const auto n_new = run_block(dev, lx, smem, [&](st::BlockCtx& ctx) {
            got = mc::scan_tile(ctx, in.view(), out_new.view(), base, valid,
                                sp, carry, kind, op,
                                ctx.shared<T>(sp.warps()));
          });
          const auto n_old = run_block(dev, lx, smem, [&](st::BlockCtx& ctx) {
            want = oracle::scan_tile(ctx, in.view(), out_old.view(), base,
                                     valid, sp, carry, kind, op,
                                     ctx.shared<T>(sp.warps()));
          });
          const std::string what = where + " " + mc::to_string(kind);
          EXPECT_TRUE(same_bits(got, want)) << "scan total " << what;
          EXPECT_TRUE(same_stats(n_new, n_old)) << "scan stats " << what;
          EXPECT_EQ(std::memcmp(out_new.host_span().data(),
                                out_old.host_span().data(),
                                static_cast<std::size_t>(base + tile) *
                                    sizeof(T)),
                    0)
              << "scan output " << what;
        }
      }
    }
  }
}

template <typename T>
void check_dtype(const char* name) {
  check_cell<T, Plus<T>>((std::string(name) + "/plus").c_str());
  check_cell<T, mc::Max<T>>((std::string(name) + "/max").c_str());
  check_cell<T, mc::Min<T>>((std::string(name) + "/min").c_str());
}

}  // namespace

// The lane-major tile bodies against the warp-register oracle over every
// dtype, operator, kind, tail length and block shape the planners use.
TEST(Skeleton, TileBodiesMatchTheWarpRegisterOracle) {
  check_dtype<std::int32_t>("i32");
  check_dtype<std::int64_t>("i64");
  check_dtype<std::uint32_t>("u32");
  check_dtype<float>("f32");
  check_dtype<double>("f64");
  check_cell<std::uint32_t, LeftTriple>("u32/3a+b");
}

// ------------------------------------------------------ exact operators

namespace {

// The cells that run the serial body: plus, max and min on the three
// integer dtypes. Floats, the 3a+b operator and SegOp keep the lane-order
// replay, as does any operator that does not declare itself exact.
template <template <typename> class Op>
constexpr bool kExactOnIntegers = mc::detail::is_exact_v<Op<std::int32_t>> &&
                                  mc::detail::is_exact_v<Op<std::int64_t>> &&
                                  mc::detail::is_exact_v<Op<std::uint32_t>>;
template <template <typename> class Op>
constexpr bool kInexactOnFloats = !mc::detail::is_exact_v<Op<float>> &&
                                  !mc::detail::is_exact_v<Op<double>>;
static_assert(kExactOnIntegers<Plus> && kExactOnIntegers<mc::Max> &&
              kExactOnIntegers<mc::Min>);
static_assert(kInexactOnFloats<Plus> && kInexactOnFloats<mc::Max> &&
              kInexactOnFloats<mc::Min>);
static_assert(!mc::detail::is_exact_v<LeftTriple>);
static_assert(
    !mc::detail::is_exact_v<mc::SegOp<std::int32_t, Plus<std::int32_t>>>);

/// `Op`'s arithmetic without its exactness claim, so the tile bodies run
/// the lane-order replay for it.
template <typename Op>
struct LaneOrder {
  using value_type = typename Op::value_type;
  static constexpr value_type identity() { return Op::identity(); }
  constexpr value_type operator()(value_type a, value_type b) const {
    return Op{}(a, b);
  }
};
static_assert(!mc::detail::is_exact_v<LaneOrder<Plus<std::int32_t>>>);

/// Values within 2^20 of the type's maximum, one in four of its minimum:
/// nearly every prefix sum wraps.
template <typename T>
std::vector<T> near_limits(std::size_t count, std::uint64_t seed) {
  mgs::util::SplitMix64 rng(seed);
  std::vector<T> v(count);
  for (auto& x : v) {
    const std::uint64_t r = rng.next();
    const auto off = static_cast<T>(r >> 44);
    x = (r % 4 == 0) ? std::numeric_limits<T>::min() + off
                     : std::numeric_limits<T>::max() - off;
  }
  return v;
}

/// Signed plus's serial body against its lane-order body on overflowing
/// sums: totals, outputs and all four counters, both kinds, tail lengths,
/// and `out == in`. Equal bits need the sum to wrap in both.
template <typename T>
void check_wrapping_plus(const char* name) {
  const Plus<T> exact;
  const LaneOrder<Plus<T>> lanes;
  auto dev = make_device();
  for (int p : {4, 8}) {
    mc::StagePlan sp;
    sp.p = p;
    sp.lx = 128;
    const std::int64_t tile = sp.tile();
    const std::int64_t smem = sp.smem_bytes(static_cast<int>(sizeof(T)));
    const auto data = near_limits<T>(static_cast<std::size_t>(tile),
                                     static_cast<std::uint64_t>(p));
    const T carry = std::numeric_limits<T>::max();
    auto in_a = dev.alloc<T>(tile);
    auto in_b = dev.alloc<T>(tile);
    auto out_a = dev.alloc<T>(tile);
    auto out_b = dev.alloc<T>(tile);
    const auto reset = [&] {
      for (auto* b : {&in_a, &in_b}) {
        std::copy(data.begin(), data.end(), b->host_span().begin());
      }
      for (auto* b : {&out_a, &out_b}) {
        std::fill(b->host_span().begin(), b->host_span().end(), T{});
      }
    };
    for (std::int64_t valid : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{127}, std::int64_t{129}, tile - 1,
                               tile}) {
      const std::string where = std::string(name) + " p=" +
                                std::to_string(p) +
                                " valid=" + std::to_string(valid);
      reset();
      T got{};
      T want{};
      const auto r_a = run_block(dev, sp.lx, smem, [&](st::BlockCtx& ctx) {
        got = mc::reduce_tile(ctx, in_a.view(), 0, valid, sp, exact);
      });
      const auto r_b = run_block(dev, sp.lx, smem, [&](st::BlockCtx& ctx) {
        want = mc::reduce_tile(ctx, in_b.view(), 0, valid, sp, lanes);
      });
      EXPECT_TRUE(same_bits(got, want)) << "reduce " << where;
      EXPECT_TRUE(same_stats(r_a, r_b)) << "reduce stats " << where;
      for (const ScanKind kind :
           {ScanKind::kInclusive, ScanKind::kExclusive}) {
        for (const bool in_place : {false, true}) {
          reset();
          const auto& dst_a = in_place ? in_a : out_a;
          const auto& dst_b = in_place ? in_b : out_b;
          const auto s_a = run_block(dev, sp.lx, smem, [&](st::BlockCtx& ctx) {
            got = mc::scan_tile(ctx, in_a.view(), dst_a.view(), 0, valid, sp,
                                carry, kind, exact, ctx.shared<T>(sp.warps()));
          });
          const auto s_b = run_block(dev, sp.lx, smem, [&](st::BlockCtx& ctx) {
            want = mc::scan_tile(ctx, in_b.view(), dst_b.view(), 0, valid, sp,
                                 carry, kind, lanes,
                                 ctx.shared<T>(sp.warps()));
          });
          const std::string what = where + " " + mc::to_string(kind) +
                                   (in_place ? " in place" : "");
          EXPECT_TRUE(same_bits(got, want)) << "scan total " << what;
          EXPECT_TRUE(same_stats(s_a, s_b)) << "scan stats " << what;
          EXPECT_EQ(std::memcmp(dst_a.host_span().data(),
                                dst_b.host_span().data(),
                                static_cast<std::size_t>(tile) * sizeof(T)),
                    0)
              << "scan output " << what;
        }
      }
    }
  }
}

}  // namespace

// Signed plus wraps, so the serial recurrence and the lane-order replay
// agree bit for bit even when the sums overflow.
TEST(Skeleton, ExactPlusWrapsLikeTheLaneOrderBody) {
  check_wrapping_plus<std::int32_t>("i32");
  check_wrapping_plus<std::int64_t>("i64");
}
