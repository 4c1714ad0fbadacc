// Unit tests for mgs/simt: warp shuffles and scans, instrumented device
// buffers (bytes/transaction accounting), the thread pool's ordered
// dispatch, and the kernel launcher.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "mgs/core/op.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/simt/device.hpp"
#include "mgs/simt/launch.hpp"
#include "mgs/simt/thread_pool.hpp"
#include "mgs/simt/warp.hpp"

namespace st = mgs::simt;
using mgs::core::Max;
using mgs::core::Min;
using mgs::core::Plus;

namespace {
st::Device make_device() { return st::Device(0, mgs::sim::k80_spec()); }

// Oracle for the warp primitives: the plain copy-per-step Kogge-Stone
// scan (each step copies the register file through a shuffle, then every
// lane l >= delta applies op(shuffled, own)). The in-place scans and the
// tree reduce must return exactly its bits.
template <typename T, typename Op>
void oracle_scan_inclusive(st::WarpReg<T>& x, Op op) {
  for (int delta = 1; delta < st::kWarpSize; delta <<= 1) {
    st::WarpReg<T> y;
    for (int l = 0; l < st::kWarpSize; ++l) {
      y[l] = (l >= delta) ? x[l - delta] : x[l];
    }
    for (int l = delta; l < st::kWarpSize; ++l) x[l] = op(y[l], x[l]);
  }
}

template <typename T, typename Op>
void oracle_scan_exclusive(st::WarpReg<T>& x, Op op) {
  oracle_scan_inclusive(x, op);
  for (int l = st::kWarpSize - 1; l > 0; --l) x[l] = x[l - 1];
  x[0] = Op::identity();
}

template <typename T, typename Op>
T oracle_reduce(st::WarpReg<T> x, Op op) {
  oracle_scan_inclusive(x, op);
  return x[st::kWarpSize - 1];
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// Runs all three primitives on `x` and checks them bit-for-bit against the
// oracle, and their alu_ops charges against the fixed per-primitive costs
// (5 shuffle steps of 64 lane-ops; the exclusive scan adds one more step).
template <typename T, typename Op>
void expect_warp_primitives_match_oracle(const st::WarpReg<T>& x, Op op) {
  mgs::sim::KernelStats stats;

  st::WarpReg<T> inc = x;
  st::WarpReg<T> want_inc = x;
  st::warp_scan_inclusive(inc, op, stats);
  oracle_scan_inclusive(want_inc, op);
  EXPECT_TRUE(same_bits(inc, want_inc)) << Op::name();
  EXPECT_EQ(stats.alu_ops, 5u * 64u);

  st::WarpReg<T> exc = x;
  st::WarpReg<T> want_exc = x;
  st::warp_scan_exclusive(exc, op, stats);
  oracle_scan_exclusive(want_exc, op);
  EXPECT_TRUE(same_bits(exc, want_exc)) << Op::name();
  EXPECT_EQ(stats.alu_ops, 5u * 64u + 6u * 64u);

  const T red = st::warp_reduce(x, op, stats);
  EXPECT_TRUE(same_bits(red, oracle_reduce(x, op))) << Op::name();
  EXPECT_EQ(stats.alu_ops, 5u * 64u + 6u * 64u + 5u * 64u);
}

// Float inputs whose sum depends on association order: huge values that
// cancel mixed with small ones that are absorbed or not depending on when
// they are added, plus seeded values spread over many magnitudes.
template <typename T>
std::vector<st::WarpReg<T>> order_sensitive_inputs() {
  std::vector<st::WarpReg<T>> out;
  // Large enough that adding 1.0 is absorbed (1e8 for f32, 1e17 for f64).
  const T big = sizeof(T) == 4 ? T(1e8) : T(1e17);
  st::WarpReg<T> x;
  for (int l = 0; l < st::kWarpSize; ++l) {
    x[l] = (l % 3 == 0) ? big : (l % 3 == 1 ? T(1.0) : -big);
  }
  out.push_back(x);
  for (int l = 0; l < st::kWarpSize; ++l) {
    x[l] = (l % 2 == 0) ? T(1.0) : (l % 4 == 1 ? big : -big);
  }
  out.push_back(x);
  for (int l = 0; l < st::kWarpSize; ++l) {
    x[l] = (l < 16) ? T(1.0) : (l == 16 ? big : T(0.5));
  }
  out.push_back(x);
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> exp10(-8, 12);
  for (int rep = 0; rep < 64; ++rep) {
    for (int l = 0; l < st::kWarpSize; ++l) {
      x[l] = static_cast<T>(mant(rng) * std::pow(10.0, exp10(rng)));
    }
    out.push_back(x);
  }
  return out;
}

template <typename T>
std::vector<st::WarpReg<T>> seeded_int_inputs() {
  std::vector<st::WarpReg<T>> out;
  std::mt19937_64 rng(777);
  std::uniform_int_distribution<T> dist(std::numeric_limits<T>::lowest(),
                                        std::numeric_limits<T>::max());
  st::WarpReg<T> x;
  for (int rep = 0; rep < 64; ++rep) {
    for (int l = 0; l < st::kWarpSize; ++l) x[l] = dist(rng);
    out.push_back(x);
  }
  x.fill(std::numeric_limits<T>::lowest());
  out.push_back(x);
  x.fill(std::numeric_limits<T>::max());
  out.push_back(x);
  return out;
}
}  // namespace

TEST(Warp, ShflUpSemantics) {
  st::WarpReg<int> x;
  for (int l = 0; l < st::kWarpSize; ++l) x[l] = l;
  mgs::sim::KernelStats stats;
  const auto y = st::shfl_up(x, 4, stats);
  for (int l = 0; l < st::kWarpSize; ++l) {
    EXPECT_EQ(y[l], l < 4 ? l : l - 4);
  }
  EXPECT_EQ(stats.alu_ops, 32u);
  EXPECT_EQ(st::shfl_idx(x, 7, stats), 7);
}

TEST(Warp, InclusiveScanMatchesSerial) {
  st::WarpReg<int> x;
  for (int l = 0; l < st::kWarpSize; ++l) x[l] = l + 1;
  mgs::sim::KernelStats stats;
  st::warp_scan_inclusive(x, Plus<int>{}, stats);
  int acc = 0;
  for (int l = 0; l < st::kWarpSize; ++l) {
    acc += l + 1;
    EXPECT_EQ(x[l], acc);
  }
  // 5 shuffle steps: each is a shfl (32 ops) plus a predicated op (32).
  EXPECT_EQ(stats.alu_ops, 5u * 64u);
}

TEST(Warp, ExclusiveScanMatchesSerial) {
  st::WarpReg<int> x;
  for (int l = 0; l < st::kWarpSize; ++l) x[l] = 2 * l + 1;
  mgs::sim::KernelStats stats;
  st::warp_scan_exclusive(x, Plus<int>{}, stats);
  int acc = 0;
  for (int l = 0; l < st::kWarpSize; ++l) {
    EXPECT_EQ(x[l], acc);
    acc += 2 * l + 1;
  }
}

TEST(Warp, ReduceAndThreadScan) {
  st::WarpReg<int> x;
  x.fill(3);
  mgs::sim::KernelStats stats;
  EXPECT_EQ(st::warp_reduce(x, Plus<int>{}, stats), 96);

  int v[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(st::thread_scan_inclusive(v, 8, Plus<int>{}, stats), 36);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[7], 36);
  st::thread_add_prefix(v, 8, 100, Plus<int>{}, stats);
  EXPECT_EQ(v[0], 101);
  EXPECT_EQ(v[7], 136);
}

TEST(Warp, FloatPlusBitIdenticalToCopyingScan) {
  const auto f32 = order_sensitive_inputs<float>();
  const auto f64 = order_sensitive_inputs<double>();
  // The inputs really are order-sensitive: on some of them the warp total
  // differs from a left-to-right sum.
  const auto order_matters = [](const auto& inputs) {
    return std::any_of(inputs.begin(), inputs.end(), [](const auto& x) {
      using T = std::decay_t<decltype(x[0])>;
      T serial = 0;
      for (T v : x) serial += v;
      return oracle_reduce(x, Plus<T>{}) != serial;
    });
  };
  EXPECT_TRUE(order_matters(f32));
  EXPECT_TRUE(order_matters(f64));

  for (const auto& x : f32) expect_warp_primitives_match_oracle(x, Plus<float>{});
  for (const auto& x : f64) expect_warp_primitives_match_oracle(x, Plus<double>{});
}

TEST(Warp, FloatMaxKeepsOperandOrder) {
  // std::max returns its first operand on ties and NaN compares false, so
  // signed zeros and NaNs expose any swapped operand.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  st::WarpReg<float> x;
  for (int l = 0; l < st::kWarpSize; ++l) {
    x[l] = (l % 4 == 0) ? -0.0f : (l % 4 == 1 ? 0.0f : (l % 7 == 2 ? nan : -1.0f));
  }
  expect_warp_primitives_match_oracle(x, Max<float>{});
  expect_warp_primitives_match_oracle(x, Min<float>{});
}

TEST(Warp, IntegerMaxMinBitIdenticalToCopyingScan) {
  for (const auto& x : seeded_int_inputs<std::int32_t>()) {
    expect_warp_primitives_match_oracle(x, Max<std::int32_t>{});
    expect_warp_primitives_match_oracle(x, Min<std::int32_t>{});
  }
  for (const auto& x : seeded_int_inputs<std::int64_t>()) {
    expect_warp_primitives_match_oracle(x, Max<std::int64_t>{});
    expect_warp_primitives_match_oracle(x, Min<std::int64_t>{});
  }
}

TEST(DeviceBuffer, AllocationBudgetIsRaii) {
  st::Device dev = make_device();
  EXPECT_EQ(dev.allocated_bytes(), 0);
  {
    auto buf = dev.alloc<int>(1000);
    EXPECT_EQ(dev.allocated_bytes(), 4000);
    auto copy = buf;  // shared handle, no double count
    EXPECT_EQ(dev.allocated_bytes(), 4000);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0);
}

TEST(DeviceBuffer, OutOfMemoryThrows) {
  st::Device dev = make_device();
  // 12 GB device: a 4 G-element int64 buffer (32 GB) cannot fit.
  EXPECT_THROW(dev.alloc<std::int64_t>(std::int64_t{4} << 30),
               mgs::util::Error);
}

TEST(GlobalView, TransactionAccounting) {
  st::Device dev = make_device();
  auto buf = dev.alloc<int>(4096);
  auto view = buf.view();
  mgs::sim::KernelStats stats;

  (void)view.load(0, stats);  // scalar: whole 32B transaction for 4 bytes
  EXPECT_EQ(stats.bytes_read, 4u);
  EXPECT_EQ(stats.mem_transactions, 1u);

  stats = {};
  (void)view.load_warp(0, stats);  // 32 x 4B contiguous = 4 txns
  EXPECT_EQ(stats.bytes_read, 128u);
  EXPECT_EQ(stats.mem_transactions, 4u);

  stats = {};
  (void)view.load4_warp(0, stats);  // 32 x 16B contiguous = 16 txns
  EXPECT_EQ(stats.bytes_read, 512u);
  EXPECT_EQ(stats.mem_transactions, 16u);

  stats = {};
  st::WarpReg<int> r{};
  view.store_warp_partial(0, 7, r, stats);  // 28 bytes -> 1 txn
  EXPECT_EQ(stats.bytes_written, 28u);
  EXPECT_EQ(stats.mem_transactions, 1u);
}

TEST(GlobalView, RoundTripAndBounds) {
  st::Device dev = make_device();
  auto buf = dev.alloc<int>(256);
  auto view = buf.view();
  mgs::sim::KernelStats stats;
  view.store4(8, {1, 2, 3, 4}, stats);
  const auto v = view.load4(8, stats);
  EXPECT_EQ(v.y, 2);
  EXPECT_EQ(buf.host_span()[11], 4);
  EXPECT_DEATH((void)view.load(256, stats), "out of bounds");
}

TEST(GlobalView, AtomicsWork) {
  st::Device dev = make_device();
  auto buf = dev.alloc<int>(8);
  auto view = buf.view();
  mgs::sim::KernelStats stats;
  view.atomic_store(3, 41, stats);
  EXPECT_EQ(view.atomic_add(3, 1, stats), 41);
  EXPECT_EQ(view.atomic_load(3, stats), 42);
  EXPECT_EQ(view.atomic_peek(3), 42);
}

TEST(ThreadPool, RunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  st::ThreadPool::instance().run_ordered(1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RapidJobTurnoverNeverDoubleExecutes) {
  // Regression test for a job-handoff race: a worker waking late from
  // job A must not claim indices against job B's counters (which could
  // double-execute a block, hang the completion wait, or call a dangling
  // callback). Hammer the pool with many small back-to-back jobs and
  // check every index ran exactly once.
  auto& pool = st::ThreadPool::instance();
  for (int round = 0; round < 2000; ++round) {
    const std::int64_t n = 1 + round % 7;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.run_ordered(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "round=" << round << " i=" << i;
    }
  }
}

TEST(ThreadPool, OrderedClaimAllowsBackwardWaits) {
  // Block i waits for block i-1's flag: must terminate at any pool size
  // thanks to ascending-claim dispatch.
  std::vector<std::atomic<int>> done(64);
  st::ThreadPool::instance().run_ordered(64, [&](std::int64_t i) {
    if (i > 0) {
      while (done[static_cast<std::size_t>(i - 1)].load() == 0) {
        std::this_thread::yield();
      }
    }
    done[static_cast<std::size_t>(i)].store(1);
  });
  EXPECT_EQ(done[63].load(), 1);
}

TEST(Launch, GridIndexingAndClock) {
  st::Device dev = make_device();
  auto buf = dev.alloc<int>(6 * 4);
  auto view = buf.view();
  st::LaunchConfig cfg;
  cfg.name = "index_writer";
  cfg.grid = {6, 4, 1};
  cfg.block = {32, 1, 1};
  cfg.regs_per_thread = 16;
  const double before = dev.clock().now();
  const auto t = st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
    view.store(ctx.block_idx().y * 6 + ctx.block_idx().x,
               ctx.block_idx().y * 100 + ctx.block_idx().x, ctx.stats());
  });
  EXPECT_GT(t.seconds, 0.0);
  EXPECT_DOUBLE_EQ(dev.clock().now(), before + t.seconds);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 6; ++x) {
      EXPECT_EQ(buf.host_span()[static_cast<std::size_t>(y * 6 + x)],
                y * 100 + x);
    }
  }
}

TEST(Launch, SharedMemoryBudgetEnforced) {
  st::Device dev = make_device();
  st::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  cfg.smem_per_block = 64;
  EXPECT_DEATH(st::launch(dev, cfg,
                          [&](st::BlockCtx& ctx) {
                            (void)ctx.shared<int>(100);  // 400 B > 64 B
                          }),
               "shared memory");
}

TEST(Launch, ValidatesConfig) {
  st::Device dev = make_device();
  st::LaunchConfig cfg;
  cfg.grid = {0, 1, 1};
  cfg.block = {32, 1, 1};
  EXPECT_THROW(st::launch(dev, cfg, [](st::BlockCtx&) {}), mgs::util::Error);
  cfg.grid = {1, 1, 1};
  cfg.block = {2048, 1, 1};
  EXPECT_THROW(st::launch(dev, cfg, [](st::BlockCtx&) {}), mgs::util::Error);
  cfg.block = {128, 1, 1};
  cfg.smem_per_block = 1 << 20;
  EXPECT_THROW(st::launch(dev, cfg, [](st::BlockCtx&) {}), mgs::util::Error);
}

TEST(Launch, ThreeDimensionalGrid) {
  st::Device dev = make_device();
  auto buf = dev.alloc<int>(2 * 3 * 4);
  auto view = buf.view();
  st::LaunchConfig cfg;
  cfg.grid = {2, 3, 4};
  cfg.block = {32, 1, 1};
  st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
    const auto idx = ctx.block_idx();
    view.store((idx.z * 3 + idx.y) * 2 + idx.x,
               100 * idx.z + 10 * idx.y + idx.x, ctx.stats());
  });
  for (int z = 0; z < 4; ++z) {
    for (int y = 0; y < 3; ++y) {
      for (int x = 0; x < 2; ++x) {
        EXPECT_EQ(buf.host_span()[static_cast<std::size_t>((z * 3 + y) * 2 + x)],
                  100 * z + 10 * y + x);
      }
    }
  }
}

TEST(Launch, SharedMemoryMixedTypesAligned) {
  st::Device dev = make_device();
  st::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {32, 1, 1};
  cfg.smem_per_block = 256;
  st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
    auto bytes = ctx.shared<std::uint8_t>(3);  // misaligns the bump pointer
    auto doubles = ctx.shared<double>(8);      // must come back aligned
    bytes[0] = 1;
    doubles[0] = 2.5;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles.data()) %
                  alignof(double),
              0u);
  });
}

TEST(Launch, DeterministicModeledTime) {
  st::Device dev = make_device();
  auto buf = dev.alloc<int>(1 << 16);
  auto view = buf.view();
  st::LaunchConfig cfg;
  cfg.grid = {64, 1, 1};
  cfg.block = {128, 1, 1};
  auto body = [&](st::BlockCtx& ctx) {
    const std::int64_t base = static_cast<std::int64_t>(ctx.block_idx().x)
                              << 10;
    for (std::int64_t i = 0; i < 1024; i += 32) {
      auto r = view.load_warp(base + i, ctx.stats());
      for (int l = 0; l < st::kWarpSize; ++l) r[l] += 1;
      view.store_warp(base + i, r, ctx.stats());
    }
  };
  const auto t1 = st::launch(dev, cfg, body);
  const auto t2 = st::launch(dev, cfg, body);
  EXPECT_DOUBLE_EQ(t1.seconds, t2.seconds);  // same stats, same model time
}

TEST(Launch, SharedMemoryZeroOnEveryBlockEntry) {
  // Every block dirties all of its shared memory. Later blocks on the same
  // worker, and later launches with larger or smaller budgets, must still
  // see all zeros on entry.
  st::Device dev = make_device();
  std::atomic<int> dirty_blocks{0};
  const std::int64_t budgets[] = {4096, 256, 0, 4096, 1024, 4096};
  for (const std::int64_t smem : budgets) {
    st::LaunchConfig cfg;
    cfg.name = "smem_dirtier";
    cfg.grid = {96, 1, 1};
    cfg.block = {32, 1, 1};
    cfg.smem_per_block = smem;
    st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
      const auto bytes = ctx.shared<std::uint8_t>(smem);
      if (std::any_of(bytes.begin(), bytes.end(),
                      [](std::uint8_t b) { return b != 0; })) {
        dirty_blocks.fetch_add(1);
      }
      std::fill(bytes.begin(), bytes.end(), std::uint8_t{0xA5});
    });
  }
  EXPECT_EQ(dirty_blocks.load(), 0);
}

TEST(Launch, StatsTotalsEqualSerialSum) {
  // Blocks charge counts that depend on their index; the launch total must
  // be exactly the serial sum on every repetition (a lost update from
  // concurrent workers would show as a short count).
  st::Device dev = make_device();
  st::LaunchConfig cfg;
  cfg.name = "stats_charger";
  cfg.grid = {37, 5, 3};
  cfg.block = {64, 1, 1};
  const auto charge = [](std::uint64_t i, mgs::sim::KernelStats& s) {
    s.bytes_read += 32 * (i % 7 + 1);
    s.bytes_written += 16 * (i % 5);
    s.mem_transactions += (i % 7 + 1) + (i % 5) + (i % 3) + 1;
    s.alu_ops += (i * i) % 1009 + 1;
  };
  mgs::sim::KernelStats want;
  want.blocks = static_cast<std::uint64_t>(cfg.grid.count());
  want.threads_per_block = static_cast<int>(cfg.block.count());
  want.regs_per_thread = cfg.regs_per_thread;
  want.smem_per_block = cfg.smem_per_block;
  for (std::uint64_t i = 0; i < want.blocks; ++i) charge(i, want);
  const mgs::sim::KernelTime want_t = mgs::sim::kernel_time(dev.spec(), want);
  ASSERT_LT(want_t.coalescing, 1.0);  // so transaction counts show

  for (int rep = 0; rep < 50; ++rep) {
    mgs::obs::TraceSession ts;
    const auto t = st::launch(dev, cfg, [&](st::BlockCtx& ctx) {
      const auto idx = ctx.block_idx();
      const std::uint64_t linear =
          (static_cast<std::uint64_t>(idx.z) * cfg.grid.y + idx.y) *
              cfg.grid.x +
          idx.x;
      charge(linear, ctx.stats());
    });
    const auto spans = ts.spans();
    ASSERT_EQ(spans.size(), 1u);
    ASSERT_EQ(spans[0].bytes, want.total_bytes()) << "rep=" << rep;
    ASSERT_EQ(spans[0].alu_ops, want.alu_ops) << "rep=" << rep;
    ASSERT_EQ(t.coalescing, want_t.coalescing) << "rep=" << rep;
    ASSERT_EQ(t.seconds, want_t.seconds) << "rep=" << rep;
  }
}

TEST(Launch, FromWorkersOfAnotherPool) {
  // A launch called from a worker of some other, larger pool: that thread
  // drains blocks as the launching thread (slot 0 of the shared pool), so
  // its own slot number there must not index the launch's stats slots.
  st::ThreadPool outer(st::ThreadPool::instance().workers() + 3);
  st::Device dev = make_device();
  st::LaunchConfig cfg;
  cfg.grid = {24, 1, 1};
  cfg.block = {32, 1, 1};
  std::mutex dev_mutex;  // the device clock is not shared across threads
  std::atomic<int> wrong{0};
  outer.run_ordered(64, [&](std::int64_t) {
    std::lock_guard<std::mutex> lock(dev_mutex);
    mgs::obs::TraceSession ts;
    st::launch(dev, cfg, [](st::BlockCtx& ctx) { ctx.count_alu(3); });
    const auto spans = ts.spans();
    if (spans.size() != 1 || spans[0].alu_ops != 24u * 3u) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
}
