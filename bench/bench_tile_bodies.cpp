/// bench_tile_bodies: host cost of the kernel-body layer. Times the Stage 1
/// tile body (core::reduce_tile) and the Stage 3 tile body
/// (core::scan_tile, inclusive, carry chained across tiles as the cascade
/// loop does) single-threaded on the calling thread, at the paper's tile
/// (P = 8, Lx = 128: 1024 elements), per dtype under plus and for i32 and
/// f32 under max, over two buffer sizes: one that stays in L2 and one that
/// streams from memory. Each buffer ends in a 1000-element tail tile. A
/// plain serial scan loop is printed beside them for scale. The integer
/// rows time the exact operators' serial body, the float rows the
/// lane-order body (skeleton.hpp).
///
/// Times are the fastest sweep's ns/elem over repeated sweeps: on a shared
/// machine interference only ever adds time, so the minimum is the stable
/// statistic for a single-threaded loop like these. The hash column is
/// FNV-1a over the scan output and both bodies' totals, so two builds whose
/// bodies must agree bit for bit can be compared row by row.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "mgs/core/skeleton.hpp"

using namespace mgs;

namespace {

struct Options {
  std::int64_t small_bytes = 0;
  std::int64_t large_bytes = 0;
  double min_seconds = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ b[i]) * 1099511628211ull;
  }
  return h;
}

/// Fastest ns/elem of `sweep` over at least three sweeps and min_seconds.
template <typename Fn>
double ns_per_elem(std::int64_t n, double min_seconds, Fn&& sweep) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             min_seconds) {
    const auto t0 = Clock::now();
    sweep();
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                     .count() /
                 static_cast<double>(n));
  }
  return *std::min_element(ns.begin(), ns.end());
}

template <typename T, typename Op>
void bench_cell(const char* dtype, const Options& opt, util::Table& table) {
  core::StagePlan sp;
  sp.p = 8;
  sp.lx = 128;
  const std::int64_t tile = sp.tile();
  simt::Device dev(0, sim::k80_spec());
  simt::LaunchConfig cfg;
  cfg.name = "tile_bodies";
  cfg.block = {sp.lx, 1, 1};
  cfg.smem_per_block = sp.smem_bytes(static_cast<int>(sizeof(T)));
  std::vector<std::byte> smem(static_cast<std::size_t>(cfg.smem_per_block));
  const Op op;

  for (const std::int64_t bytes : {opt.small_bytes, opt.large_bytes}) {
    const std::int64_t tiles = std::max<std::int64_t>(
        2, bytes / static_cast<std::int64_t>(sizeof(T)) / tile);
    const std::int64_t n = (tiles - 1) * tile + 1000;
    const auto src = util::random_i32(static_cast<std::size_t>(n), 20180521);
    auto in = dev.alloc<T>(n);
    auto out = dev.alloc<T>(n);
    std::transform(src.begin(), src.end(), in.host_span().begin(),
                   [](int v) { return static_cast<T>(v % 1024); });
    const auto iv = in.view();
    const auto ov = out.view();

    const double serial_ns = ns_per_elem(n, opt.min_seconds, [&] {
      const T* s = in.host_span().data();
      T* d = out.host_span().data();
      T acc = op.identity();
      for (std::int64_t i = 0; i < n; ++i) d[i] = acc = op(acc, s[i]);
    });
    T reduce_total{};
    const double reduce_ns = ns_per_elem(n, opt.min_seconds, [&] {
      simt::BlockCtx ctx({0, 0, 0}, cfg, dev.id(), smem);
      T total = op.identity();
      for (std::int64_t base = 0; base < n; base += tile) {
        const std::int64_t valid = std::min(tile, n - base);
        total = op(total, core::reduce_tile(ctx, iv, base, valid, sp, op));
      }
      reduce_total = total;
    });
    // Last, so the output the hash reads is the scan body's.
    T scan_total{};
    const double scan_ns = ns_per_elem(n, opt.min_seconds, [&] {
      simt::BlockCtx ctx({0, 0, 0}, cfg, dev.id(), smem);
      const auto partials = ctx.shared<T>(sp.warps());
      T carry = op.identity();
      for (std::int64_t base = 0; base < n; base += tile) {
        const std::int64_t valid = std::min(tile, n - base);
        carry = op(carry,
                   core::scan_tile(ctx, iv, ov, base, valid, sp, carry,
                                   core::ScanKind::kInclusive, op, partials));
      }
      scan_total = carry;
    });
    std::uint64_t h = 14695981039346656037ull;
    h = fnv1a(h, out.host_span().data(),
              static_cast<std::size_t>(n) * sizeof(T));
    h = fnv1a(h, &reduce_total, sizeof(T));
    h = fnv1a(h, &scan_total, sizeof(T));
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(h));
    table.add_row({dtype, Op::name(),
                   util::fmt_bytes(static_cast<std::uint64_t>(n) * sizeof(T)),
                   std::to_string(n), util::fmt_double(reduce_ns, 3),
                   util::fmt_double(scan_ns, 3),
                   util::fmt_double(serial_ns, 3), hash});
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("small-kb", "L2-resident buffer size in KiB (default 256)");
  cli.describe("large-mb", "streaming buffer size in MiB (default 16)");
  cli.describe("min-ms", "minimum time per measurement in ms (default 300)");
  cli.describe("csv", "emit CSV instead of an aligned table");
  if (cli.help_requested()) {
    cli.print_help("Host ns/elem of the Stage 1 and Stage 3 tile bodies.");
    return 0;
  }
  cli.reject_unknown();
  Options opt;
  opt.small_bytes = cli.get_int("small-kb", 256) << 10;
  opt.large_bytes = cli.get_int("large-mb", 16) << 20;
  opt.min_seconds = cli.get_double("min-ms", 300) / 1e3;
  MGS_REQUIRE(opt.small_bytes > 0 && opt.large_bytes > 0 &&
                  opt.min_seconds >= 0,
              "--small-kb and --large-mb must be positive, --min-ms >= 0");

  util::Table table({"dtype", "op", "buffer", "elems", "reduce_tile ns/elem",
                     "scan_tile ns/elem", "serial scan ns/elem", "hash"});
  bench_cell<std::int32_t, core::Plus<std::int32_t>>("i32", opt, table);
  bench_cell<std::int32_t, core::Max<std::int32_t>>("i32", opt, table);
  bench_cell<std::int64_t, core::Plus<std::int64_t>>("i64", opt, table);
  bench_cell<std::uint32_t, core::Plus<std::uint32_t>>("u32", opt, table);
  bench_cell<float, core::Plus<float>>("f32", opt, table);
  bench_cell<float, core::Max<float>>("f32", opt, table);
  bench_cell<double, core::Plus<double>>("f64", opt, table);
  if (cli.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
