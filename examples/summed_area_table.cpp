/// summed_area_table: 2-D prefix sums (integral images, Hensley et al. --
/// reference [9] of the paper). A summed-area table is two batched scans:
///
///   1. scan every row   -- one batch invocation with G = height problems
///                          of N = width elements (the library's core
///                          batch feature, Case 1 of Section 4);
///   2. transpose, scan every "row" again, transpose back.
///
/// The batch API solves all rows in ONE invocation -- exactly the
/// scenario where the paper's proposal crushes per-row library calls
/// (Figure 12). For comparison, the example also times the G-invocation
/// approach a per-problem library would need.
///
///   $ ./summed_area_table [--width 1024] [--height 1024]

#include <cstdio>
#include <vector>

#include "mgs/baselines/cub.hpp"
#include "mgs/core/api.hpp"
#include "mgs/simt/algorithms.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

using namespace mgs;



int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("width", "image width (default 1024)");
  cli.describe("height", "image height (default 1024)");
  if (cli.help_requested()) {
    cli.print_help("Summed-area table via two batched scans + transposes.");
    return 0;
  }
  cli.reject_unknown();
  const std::int64_t w = cli.get_int("width", 1024);
  const std::int64_t h = cli.get_int("height", 1024);

  simt::Device dev(0, sim::k80_spec());
  auto plan = core::derive_spl(dev.spec(), 4).plan;
  plan.s13.k = 1;

  const auto image =
      util::random_i32(static_cast<std::size_t>(w * h), 5, 0, 255);
  auto a = dev.alloc<int>(w * h);
  auto b = dev.alloc<int>(w * h);
  std::copy(image.begin(), image.end(), a.host_span().begin());

  // Row scans (ONE batch invocation for all h rows), transpose, column
  // scans (one invocation for all w rows), transpose back.
  double total = 0.0;
  total += core::scan_sp<int>(dev, a.host_span(), a.host_span(), w, h, plan,
                              core::ScanKind::kInclusive)
               .seconds;
  total += simt::transpose(dev, a, b, w, h).seconds;
  total += core::scan_sp<int>(dev, b.host_span(), b.host_span(), h, w, plan,
                              core::ScanKind::kInclusive)
               .seconds;
  total += simt::transpose(dev, b, a, h, w).seconds;

  // The per-problem alternative: one library call per row (CUB model).
  simt::Device dev2(0, sim::k80_spec());
  auto c = dev2.alloc<int>(w * h);
  std::copy(image.begin(), image.end(), c.host_span().begin());
  double per_row = 0.0;
  for (std::int64_t row = 0; row < h; ++row) {
    per_row += baselines::cub_scan<int>(dev2, c, c, row * w, w,
                                        core::ScanKind::kInclusive)
                   .seconds;
  }

  // Verify against a serial SAT.
  std::vector<std::int64_t> sat(static_cast<std::size_t>(w * h));
  bool ok = true;
  for (std::int64_t y = 0; y < h && ok; ++y) {
    for (std::int64_t x = 0; x < w && ok; ++x) {
      const auto at = [&](std::int64_t xx, std::int64_t yy) -> std::int64_t {
        return (xx < 0 || yy < 0) ? 0 : sat[static_cast<std::size_t>(yy * w + xx)];
      };
      sat[static_cast<std::size_t>(y * w + x)] =
          image[static_cast<std::size_t>(y * w + x)] + at(x - 1, y) +
          at(x, y - 1) - at(x - 1, y - 1);
      ok = a.host_span()[static_cast<std::size_t>(y * w + x)] ==
           static_cast<int>(sat[static_cast<std::size_t>(y * w + x)]);
    }
  }

  std::printf("Summed-area table %lldx%lld\n", static_cast<long long>(w),
              static_cast<long long>(h));
  std::printf("  batched scans + transposes: %s\n",
              util::fmt_time_us(total).c_str());
  std::printf("  per-row library calls (row scans alone): %s (%.1fx slower)\n",
              util::fmt_time_us(per_row).c_str(), per_row / total);
  std::printf("%s\n", ok ? "OK: matches serial SAT."
                         : "FAILED: mismatch vs serial SAT!");
  return ok ? 0 : 1;
}
