/// histogram_equalization: the image-processing classic, built from two
/// substrate primitives around a scan:
///
///   1. histogram of the 8-bit image      (device atomics)
///   2. cumulative distribution function  (inclusive scan -- this library)
///   3. remap each pixel through the CDF  (gather through a lookup table)
///
/// Demonstrates scan as the glue step of a larger pipeline, plus the
/// substrate's atomic operations.
///
///   $ ./histogram_equalization [--pixels 1048576]

#include <cstdio>
#include <vector>

#include "mgs/core/api.hpp"
#include "mgs/simt/algorithms.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("pixels", "number of 8-bit pixels (default 1 Mi)");
  if (cli.help_requested()) {
    cli.print_help("Histogram equalization: atomics + scan (CDF) + remap.");
    return 0;
  }
  cli.reject_unknown();
  const std::int64_t n = cli.get_int("pixels", 1 << 20);
  constexpr int kLevels = 256;

  simt::Device dev(0, sim::k80_spec());
  auto plan = core::derive_spl(dev.spec(), 4).plan;

  // A low-contrast image: values crowded into [96, 160).
  const auto raw = util::random_i32(static_cast<std::size_t>(n), 3, 96, 159);
  auto image = dev.alloc<int>(n);
  auto hist = dev.alloc<int>(kLevels);
  auto cdf = dev.alloc<int>(kLevels);
  std::copy(raw.begin(), raw.end(), image.host_span().begin());
  simt::fill(dev, hist, 0);

  // --- Step 1: histogram with device atomics.
  simt::LaunchConfig hcfg;
  hcfg.name = "histogram";
  hcfg.grid = {static_cast<int>(util::div_up(
                   static_cast<std::uint64_t>(n), 4096)),
               1, 1};
  hcfg.block = {128, 1, 1};
  const auto iv = image.view();
  const auto hv = hist.view();
  const auto t_hist = simt::launch(dev, hcfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t base =
        static_cast<std::int64_t>(ctx.block_idx().x) * 4096;
    const std::int64_t len = std::min<std::int64_t>(4096, n - base);
    for (std::int64_t i = 0; i < len; ++i) {
      hv.atomic_add(iv.load(base + i, ctx.stats()), 1, ctx.stats());
    }
  });

  // --- Step 2: CDF = inclusive scan of the histogram.
  const auto t_scan = core::scan_sp<int>(dev, hist.host_span(),
                                         cdf.host_span(), kLevels, 1, plan,
                                         core::ScanKind::kInclusive);

  // --- Step 3: remap pixels through the equalization lookup table.
  const std::int64_t cdf_min = [&] {
    for (int v = 0; v < kLevels; ++v) {
      const int c = cdf.host_span()[static_cast<std::size_t>(v)];
      if (c != 0) return static_cast<std::int64_t>(c);
    }
    return std::int64_t{0};
  }();
  const auto cv = cdf.view();
  hcfg.name = "remap";
  const auto t_remap = simt::launch(dev, hcfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t base =
        static_cast<std::int64_t>(ctx.block_idx().x) * 4096;
    const std::int64_t len = std::min<std::int64_t>(4096, n - base);
    for (std::int64_t i = 0; i < len; ++i) {
      const int v = iv.load(base + i, ctx.stats());
      const std::int64_t c = cv.load(v, ctx.stats());
      const int eq = static_cast<int>((c - cdf_min) * (kLevels - 1) /
                                      std::max<std::int64_t>(1, n - cdf_min));
      iv.store(base + i, eq, ctx.stats());
      ctx.count_alu(4);
    }
  });

  // --- Verify: serial equalization must agree pixel-for-pixel, and the
  // output must span (nearly) the full dynamic range.
  std::vector<std::int64_t> shist(kLevels, 0);
  for (int x : raw) ++shist[static_cast<std::size_t>(x)];
  std::vector<std::int64_t> scdf(kLevels, 0);
  std::int64_t acc = 0;
  for (int v = 0; v < kLevels; ++v) {
    acc += shist[static_cast<std::size_t>(v)];
    scdf[static_cast<std::size_t>(v)] = acc;
  }
  bool ok = true;
  int out_min = kLevels, out_max = -1;
  for (std::int64_t i = 0; i < n && ok; ++i) {
    const int v = raw[static_cast<std::size_t>(i)];
    const int want = static_cast<int>(
        (scdf[static_cast<std::size_t>(v)] - cdf_min) * (kLevels - 1) /
        std::max<std::int64_t>(1, n - cdf_min));
    const int got = image.host_span()[static_cast<std::size_t>(i)];
    ok = got == want;
    out_min = std::min(out_min, got);
    out_max = std::max(out_max, got);
  }

  std::printf("Equalized %lld pixels: input range [96, 159] -> output range "
              "[%d, %d]\n",
              static_cast<long long>(n), out_min, out_max);
  std::printf("Simulated time: histogram %s + scan %s + remap %s\n",
              util::fmt_time_us(t_hist.seconds).c_str(),
              util::fmt_time_us(t_scan.seconds).c_str(),
              util::fmt_time_us(t_remap.seconds).c_str());
  std::printf("%s\n", ok && out_max > 240
                          ? "OK: matches serial equalization, full contrast."
                          : "FAILED: mismatch vs serial equalization!");
  return ok ? 0 : 1;
}
