#include "mgs/core/autotuner.hpp"

#include "mgs/core/scan_sp.hpp"
#include "mgs/core/segmented.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/occupancy.hpp"
#include "mgs/util/math.hpp"

namespace mgs::core {

Autotuner::Autotuner(sim::DeviceSpec spec) : spec_(std::move(spec)) {}

std::vector<ScanPlan> Autotuner::candidates(std::int64_t n, std::int64_t g,
                                            int elem_bytes) const {
  MGS_REQUIRE(n > 0 && g > 0, "Autotuner: N and G must be positive");
  MGS_REQUIRE(elem_bytes == 4 || elem_bytes == 8 || elem_bytes == 16,
              "Autotuner: elem_bytes must be 4, 8 or 16");
  std::vector<ScanPlan> plans;
  const ScanPlan base = derive_spl(spec_, elem_bytes).plan;

  for (int p : {4, 8, 16}) {
    for (int lx : {64, 128, 256}) {
      ScanPlan plan = base;
      plan.s13.p = p;
      plan.s13.lx = lx;
      if (plan.s13.regs_per_thread() > spec_.max_regs_per_thread) continue;
      // Must be resident at all on this device.
      try {
        (void)sim::occupancy(spec_, plan.s13.threads(),
                             plan.s13.regs_per_thread(),
                             plan.s13.smem_bytes(elem_bytes));
      } catch (const util::Error&) {
        continue;
      }
      // K space: Equation 1, additionally capped so at least one full
      // block of work exists per problem.
      const std::int64_t k_eq1 = k1_max_eq1(n, g, plan, spec_);
      const std::int64_t k_fit = std::max<std::int64_t>(
          1, n / plan.s13.tile());
      const std::int64_t bound =
          std::min({k_eq1, k_fit, std::int64_t{256}});
      for (std::int64_t k = 1; k <= bound; k *= 2) {
        plan.s13.k = static_cast<int>(k);
        plans.push_back(plan);
      }
    }
  }
  MGS_CHECK(!plans.empty(), "Autotuner: empty candidate space");
  return plans;
}

namespace {

/// One probe run at the given element width. The probe element type only
/// has to move the right number of bytes per lane; the premises' cost
/// trade-offs are byte-driven, not value-driven.
template <typename T, typename Op = Plus<T>>
double probe_scan(const sim::DeviceSpec& spec, const ScanPlan& plan,
                  std::int64_t n, std::int64_t g) {
  simt::Device dev(0, spec);
  auto in = dev.alloc<T>(n * g);
  auto out = dev.alloc<T>(n * g);
  return scan_sp<T, Op>(dev, in, out, n, g, plan, ScanKind::kInclusive)
      .seconds;
}

}  // namespace

double Autotuner::measure(const ScanPlan& plan, std::int64_t n,
                          std::int64_t g, int elem_bytes) const {
  // Probes run on a throwaway device: none of their kernels belongs in the
  // caller's trace.
  const obs::TracePause untraced;
  switch (elem_bytes) {
    case 8:
      return probe_scan<double>(spec_, plan, n, g);
    case 16:
      return probe_scan<SegPair<double>, SegOp<double, Plus<double>>>(
          spec_, plan, n, g);
    default:
      return probe_scan<int>(spec_, plan, n, g);
  }
}

const AutotuneEntry& Autotuner::tune(std::int64_t n, std::int64_t g,
                                     int elem_bytes) {
  const auto key = std::make_tuple(n, g, elem_bytes);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }

  report_.clear();
  AutotuneEntry best;
  bool first = true;
  for (const ScanPlan& plan : candidates(n, g, elem_bytes)) {
    const double s = measure(plan, n, g, elem_bytes);
    report_.push_back({plan.s13.p, plan.s13.lx, plan.s13.k, s, false});
    if (first || s < best.seconds) {
      best.plan = plan;
      best.seconds = s;
      first = false;
    }
  }
  for (auto& row : report_) {
    row.best = row.p == best.plan.s13.p && row.lx == best.plan.s13.lx &&
               row.k == best.plan.s13.k;
  }
  return cache_.emplace(key, best).first->second;
}

}  // namespace mgs::core
