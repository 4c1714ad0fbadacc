/// radix_sort: least-significant-digit radix sort built on the scan
/// primitive -- the canonical "scan as a building block" application
/// (split operation per bit: rank = exclusive scan of the 0/1 digit
/// flags). Sorts 32-bit unsigned keys 1 bit per pass, each pass running
/// two scans and a scatter on the simulated device.
///
///   $ ./radix_sort [--n 1048576] [--bits 32]

#include <cstdio>
#include <vector>

#include "mgs/core/api.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

using namespace mgs;

namespace {

/// One split pass: stable-partition keys by bit `bit`, using an exclusive
/// scan of the complement flags for the zero side and arithmetic for the
/// one side. Returns the simulated seconds spent.
double split_pass(simt::Device& dev, const core::ScanPlan& plan,
                  simt::DeviceBuffer<int>& keys,
                  simt::DeviceBuffer<int>& keys_out, std::int64_t n,
                  int bit) {
  auto flags = dev.alloc<int>(n);   // 1 where bit is clear
  auto ranks = dev.alloc<int>(n);   // scatter position for zero-side keys
  const auto kv = keys.view();
  const auto fv = flags.view();

  simt::LaunchConfig cfg;
  cfg.name = "digit_flags";
  cfg.grid = {static_cast<int>(util::div_up(
                  static_cast<std::uint64_t>(n), 4096)),
              1, 1};
  cfg.block = {128, 1, 1};
  double seconds = 0.0;
  seconds += simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
               const std::int64_t base =
                   static_cast<std::int64_t>(ctx.block_idx().x) * 4096;
               const std::int64_t len = std::min<std::int64_t>(4096, n - base);
               for (std::int64_t i = 0; i < len; i += simt::kWarpSize) {
                 const int cnt = static_cast<int>(
                     std::min<std::int64_t>(simt::kWarpSize, len - i));
                 auto r = kv.load_warp_partial(base + i, cnt, 0, ctx.stats());
                 for (int l = 0; l < cnt; ++l) {
                   r[l] = ((static_cast<unsigned>(r[l]) >> bit) & 1u) ? 0 : 1;
                 }
                 ctx.count_alu(static_cast<std::uint64_t>(cnt));
                 fv.store_warp_partial(base + i, cnt, r, ctx.stats());
               }
             }).seconds;

  seconds += core::scan_sp<int>(dev, flags.host_span(), ranks.host_span(), n,
                                1, plan, core::ScanKind::kExclusive)
                 .seconds;

  const std::int64_t zeros =
      ranks.host_span()[static_cast<std::size_t>(n - 1)] +
      flags.host_span()[static_cast<std::size_t>(n - 1)];
  const auto rv = ranks.view();
  const auto ov = keys_out.view();
  cfg.name = "split_scatter";
  seconds += simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
               const std::int64_t base =
                   static_cast<std::int64_t>(ctx.block_idx().x) * 4096;
               const std::int64_t len = std::min<std::int64_t>(4096, n - base);
               for (std::int64_t i = 0; i < len; ++i) {
                 const int key = kv.load(base + i, ctx.stats());
                 const int is_zero = fv.load(base + i, ctx.stats());
                 const std::int64_t rank = rv.load(base + i, ctx.stats());
                 // Ones go after all zeros, preserving order:
                 // position = i - rank_of_zeros_before_i + zeros.
                 const std::int64_t pos =
                     is_zero != 0 ? rank : (base + i) - rank + zeros;
                 ov.store(pos, key, ctx.stats());
                 ctx.count_alu(3);
               }
             }).seconds;
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("n", "number of keys (default 1 Mi)");
  cli.describe("bits", "key bits to sort (default 16; 32 = full sort)");
  if (cli.help_requested()) {
    cli.print_help("LSD radix sort built on the scan primitive.");
    return 0;
  }
  cli.reject_unknown();
  const std::int64_t n = cli.get_int("n", 1 << 20);
  const int bits = static_cast<int>(cli.get_int("bits", 16));
  MGS_REQUIRE(bits >= 1 && bits <= 31, "--bits must be in [1, 31]");

  simt::Device dev(0, sim::k80_spec());
  auto plan = core::derive_spl(dev.spec(), 4).plan;
  plan.s13.k = 4;

  const auto data = util::random_i32(static_cast<std::size_t>(n), 99, 0,
                                     (1 << bits) - 1);
  auto ping = dev.alloc<int>(n);
  auto pong = dev.alloc<int>(n);
  std::copy(data.begin(), data.end(), ping.host_span().begin());

  double total = 0.0;
  for (int bit = 0; bit < bits; ++bit) {
    total += split_pass(dev, plan, ping, pong, n, bit);
    std::swap(ping, pong);
  }

  std::vector<int> want(data);
  std::sort(want.begin(), want.end());
  bool ok = true;
  for (std::int64_t i = 0; ok && i < n; ++i) {
    ok = ping.host_span()[static_cast<std::size_t>(i)] ==
         want[static_cast<std::size_t>(i)];
  }

  std::printf("Sorted %lld keys (%d bits, %d split passes)\n",
              static_cast<long long>(n), bits, bits);
  std::printf("Simulated time: %s (%.1f Mkeys/s)\n",
              util::fmt_time_us(total).c_str(),
              static_cast<double>(n) / total / 1e6);
  std::printf("%s\n", ok ? "OK: matches std::sort."
                         : "FAILED: mismatch vs std::sort!");
  return ok ? 0 : 1;
}
