// Tests for the deterministic chaos harness (mgs::chaos): the seeded
// scenario sampler, the spec-line round trip, the invariant checker and
// the greedy shrinker. The harness itself is what guards the executors;
// these tests guard the harness -- above all its determinism, since a
// repro line is only useful if it replays identically everywhere.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "mgs/chaos/chaos.hpp"
#include "mgs/util/check.hpp"

namespace ch = mgs::chaos;

TEST(ChaosSampler, IsDeterministicAndAddressable) {
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ch::sample_scenario(7, i), ch::sample_scenario(7, i)) << i;
  }
  // Addressable: scenario i does not depend on scenarios 0..i-1 having
  // been sampled, so campaigns can be replayed per-index.
  const auto direct = ch::sample_scenario(7, 17);
  for (int i = 0; i < 17; ++i) ch::sample_scenario(7, i);
  EXPECT_EQ(ch::sample_scenario(7, 17), direct);
}

TEST(ChaosSampler, VariesAcrossIndexAndSeed) {
  std::set<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    lines.insert(ch::to_string(ch::sample_scenario(7, i)));
  }
  // Far more distinct scenarios than could happen by collision.
  EXPECT_GT(lines.size(), 48u);
  EXPECT_NE(ch::to_string(ch::sample_scenario(7, 0)),
            ch::to_string(ch::sample_scenario(8, 0)));
}

TEST(ChaosSampler, CoversEveryProposalAndFaultedness) {
  std::set<std::string> executors;
  int faulted = 0;
  for (int i = 0; i < 200; ++i) {
    const auto s = ch::sample_scenario(20260808, i);
    executors.insert(s.executor);
    if (!s.faults.empty()) ++faulted;
  }
  EXPECT_EQ(executors.size(), 5u);  // all five proposals get sampled
  EXPECT_GT(faulted, 50);
  EXPECT_LT(faulted, 200);  // and healthy runs stay in the mix
}

TEST(ChaosSampler, CoversSegmentedAndPlainScans) {
  int segmented = 0;
  for (int i = 0; i < 200; ++i) {
    if (ch::sample_scenario(20260808, i).segmented) ++segmented;
  }
  // ~1/8 of draws route through the SegmentedScan wrapper; plain scans
  // must stay the bulk of the campaign.
  EXPECT_GT(segmented, 5);
  EXPECT_LT(segmented, 100);
}

TEST(ChaosScenario, SegmentedRoundTripsAndDefaultsToFalse) {
  ch::Scenario s;
  s.segmented = true;
  s.faults = "straggler:dev=1,factor=4";
  const auto line = ch::to_string(s);
  // seg precedes faults: the faults value may embed ';' and '='.
  EXPECT_LT(line.find("seg=1"), line.find("faults="));
  EXPECT_EQ(ch::parse_scenario(line), s);
  // Pre-segmented repro lines (no seg key) still parse, as plain scans.
  ch::Scenario plain;
  EXPECT_FALSE(ch::parse_scenario(ch::to_string(plain)).segmented);
}

TEST(ChaosScenario, SpecLineRoundTrips) {
  for (int i = 0; i < 50; ++i) {
    const auto s = ch::sample_scenario(42, i);
    const auto line = ch::to_string(s);
    EXPECT_EQ(ch::parse_scenario(line), s) << line;
    EXPECT_EQ(ch::to_string(ch::parse_scenario(line)), line);
  }
}

TEST(ChaosScenario, FaultSpecSurvivesEmbeddedSeparators) {
  ch::Scenario s;
  s.faults = "device-down:dev=1,at=1e-06;straggler:dev=2,factor=4";
  const auto r = ch::parse_scenario(ch::to_string(s));
  EXPECT_EQ(r.faults, s.faults);
  EXPECT_EQ(r, s);
}

TEST(ChaosScenario, RejectsMalformedLines) {
  EXPECT_THROW(ch::parse_scenario("exec=Scan-MPS;bogus=1"),
               mgs::util::Error);
  EXPECT_THROW(ch::parse_scenario("n=abc"), mgs::util::Error);
  EXPECT_THROW(ch::parse_scenario("n=12junk"), mgs::util::Error);
  EXPECT_THROW(ch::parse_scenario("n=0"), mgs::util::Error);
  EXPECT_THROW(ch::parse_scenario("dtype=i7"), mgs::util::Error);
  EXPECT_THROW(ch::parse_scenario("exec=Scan-XX"), mgs::util::Error);
}

TEST(ChaosShrink, ReducesToMinimalFailingScenario) {
  // A deliberately heavyweight scenario; the synthetic predicate "fails"
  // whenever a device-down event is present, so the shrinker should strip
  // everything else away.
  ch::Scenario big;
  big.executor = "Scan-MPS";
  big.w = 8;
  big.n = 65536;
  big.g = 8;
  big.dtype = mgs::core::DType::kF64;
  big.op = mgs::core::OpTag::kMax;
  big.kind = mgs::core::ScanKind::kExclusive;
  big.pipeline = mgs::core::PipelineMode::kOverlap;
  big.waves = 4;
  big.faults = "device-down:dev=3;straggler:dev=1,factor=4";
  const auto fails = [](const ch::Scenario& s) {
    return s.faults.find("device-down") != std::string::npos;
  };
  ASSERT_TRUE(fails(big));
  const auto small = ch::shrink(big, fails);
  EXPECT_TRUE(fails(small));  // shrinking never loses the failure
  EXPECT_EQ(small.faults, "device-down:dev=3");
  EXPECT_EQ(small.n, 256);
  EXPECT_EQ(small.g, 1);
  EXPECT_EQ(small.w, 2);
  EXPECT_EQ(small.dtype, mgs::core::DType::kI32);
  EXPECT_EQ(small.op, mgs::core::OpTag::kPlus);
  EXPECT_EQ(small.kind, mgs::core::ScanKind::kInclusive);
  EXPECT_EQ(small.pipeline, mgs::core::PipelineMode::kSync);
  EXPECT_EQ(small.waves, 0);
}

TEST(ChaosShrink, PassingScenarioShrinksToItself) {
  const auto s = ch::sample_scenario(9, 3);
  const auto fails = [](const ch::Scenario&) { return false; };
  EXPECT_EQ(ch::shrink(s, fails), s);
}

TEST(ChaosCheck, HealthyAndFaultedScenariosHoldEveryInvariant) {
  // One healthy and one faulted hand-built scenario through the real
  // checker (reference match, telescoping, report consistency,
  // determinism, span accounting).
  ch::Scenario healthy;
  healthy.executor = "Scan-MPS";
  healthy.w = 4;
  healthy.n = 1024;
  healthy.g = 2;
  EXPECT_EQ(ch::check_scenario(healthy), std::nullopt);

  ch::Scenario faulted = healthy;
  faulted.faults = "device-down:dev=1,at=1e-09";
  EXPECT_EQ(ch::check_scenario(faulted), std::nullopt);
}

TEST(ChaosCheck, SegmentedScenariosHoldEveryInvariant) {
  // The SegmentedScan wrapper path: healthy on two proposals and under
  // an injected straggler -- reference match here exercises the inline
  // serial segmented reference against the packed SegPair executors.
  ch::Scenario seg;
  seg.executor = "Scan-MPS";
  seg.w = 4;
  seg.n = 1024;
  seg.g = 2;
  seg.segmented = true;
  EXPECT_EQ(ch::check_scenario(seg), std::nullopt);

  seg.kind = mgs::core::ScanKind::kExclusive;
  EXPECT_EQ(ch::check_scenario(seg), std::nullopt);

  ch::Scenario sp = seg;
  sp.executor = "Scan-SP";
  sp.w = 0;
  EXPECT_EQ(ch::check_scenario(sp), std::nullopt);

  ch::Scenario faulted = seg;
  faulted.faults = "straggler:dev=1,factor=4";
  EXPECT_EQ(ch::check_scenario(faulted), std::nullopt);
}

TEST(ChaosCheck, U32LinesReplayOnTheU32Cell) {
  // The runner checks that the executor it built runs the line's own
  // (dtype, op) cell, so a u32 replay routed to another cell aborts
  // instead of passing without touching u32.
  for (const char* line :
       {"exec=Scan-MPS;dtype=u32;op=max;kind=inclusive;n=1024;g=2;nodes=1;"
        "w=4;y=0;v=0;m=0;pipe=overlap;waves=2;seed=7;index=3",
        "exec=Scan-SP;dtype=u32;op=plus;kind=exclusive;n=1000;g=3;nodes=1;"
        "w=0;y=0;v=0;m=0;pipe=auto;waves=0;seed=7;index=4;seg=1"}) {
    const ch::Scenario s = ch::parse_scenario(line);
    ASSERT_EQ(s.dtype, mgs::core::DType::kU32);
    EXPECT_EQ(ch::check_scenario(s), std::nullopt) << line;
  }
}

TEST(ChaosShrink, DropsSegmentedWrapperWhenPlainScanStillFails) {
  ch::Scenario s;
  s.segmented = true;
  s.faults = "device-down:dev=3";
  const auto fails = [](const ch::Scenario& c) {
    return c.faults.find("device-down") != std::string::npos;
  };
  const auto small = ch::shrink(s, fails);
  EXPECT_FALSE(small.segmented);
}

TEST(ChaosCampaign, SmallSeededCampaignIsCleanAndAccountedFor) {
  const auto r = ch::run_campaign(20260808, 40);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.total, 40);
  EXPECT_EQ(r.healthy + r.faulted, 40);
  EXPECT_GT(r.faulted, 0);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_TRUE(r.violations.empty());
}
