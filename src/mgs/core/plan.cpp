#include "mgs/core/plan.hpp"

#include <sstream>

namespace mgs::core {

void StagePlan::validate() const {
  MGS_REQUIRE(p > 0 && util::is_pow2(static_cast<std::uint64_t>(p)),
              "StagePlan: P must be a positive power of two");
  MGS_REQUIRE(lx > 0 && util::is_pow2(static_cast<std::uint64_t>(lx)),
              "StagePlan: Lx must be a positive power of two");
  MGS_REQUIRE(ly > 0 && util::is_pow2(static_cast<std::uint64_t>(ly)),
              "StagePlan: Ly must be a positive power of two");
  MGS_REQUIRE(k > 0 && util::is_pow2(static_cast<std::uint64_t>(k)),
              "StagePlan: K must be a positive power of two");
  MGS_REQUIRE(lx % simt::kWarpSize == 0 || ly == 1,
              "StagePlan: multi-problem blocks need warp-aligned Lx");
}

void ScanPlan::validate() const {
  s13.validate();
  s2.validate();
  MGS_REQUIRE(s13.ly == 1,
              "ScanPlan: stages 1/3 put every thread of a block on one "
              "problem (L_y^{1,3} = 1)");
  MGS_REQUIRE(s2.k == 1, "ScanPlan: K^2 = 1 (Premise 3)");
  MGS_REQUIRE(pipe.waves >= 1, "ScanPlan: pipeline needs >= 1 wave");
}

std::string ScanPlan::describe() const {
  std::ostringstream os;
  os << "stage1/3: (s=" << s13.s_log2() << ", p=" << s13.p_log2()
     << ", l=" << s13.l_log2() << ", K=" << s13.k << ")"
     << " [P=" << s13.p << ", Lx=" << s13.lx << ", chunk=" << s13.chunk()
     << ", regs=" << s13.regs_per_thread() << "]"
     << "; stage2: (lx=" << s2.lx << ", ly=" << s2.ly << ", p=" << s2.p << ")";
  if (pipe.overlap) {
    os << "; pipeline: overlapped, waves=" << pipe.waves;
  } else {
    os << "; pipeline: synchronous";
  }
  return os.str();
}

ScanPlan apply_pipeline_choice(ScanPlan plan, const PipelineChoice& choice) {
  switch (choice.mode) {
    case PipelineMode::kAuto:
      break;
    case PipelineMode::kSync:
      plan.pipe.overlap = false;
      break;
    case PipelineMode::kOverlap:
      plan.pipe.overlap = true;
      break;
  }
  if (choice.waves > 0) plan.pipe.waves = choice.waves;
  if (plan.pipe.waves < 1) plan.pipe.waves = 1;
  return plan;
}

BatchLayout make_layout(std::int64_t n_local, std::int64_t g,
                        const StagePlan& s13, std::int64_t pitch) {
  MGS_REQUIRE(n_local > 0, "make_layout: empty problem portion");
  MGS_REQUIRE(g > 0, "make_layout: batch must contain at least one problem");
  MGS_REQUIRE(pitch == 0 || pitch >= n_local,
              "make_layout: portions overlap (pitch < n_local)");
  BatchLayout lay;
  lay.n_local = n_local;
  lay.g = g;
  lay.pitch = pitch == 0 ? n_local : pitch;
  lay.chunk = s13.chunk();
  lay.bx = static_cast<std::int64_t>(
      util::div_up(static_cast<std::uint64_t>(n_local),
                   static_cast<std::uint64_t>(lay.chunk)));
  return lay;
}

}  // namespace mgs::core
