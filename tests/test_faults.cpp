// Tests for the fault-injection framework and the resilience paths built
// on it: the fault-spec parser, the TransferEngine retry / reroute /
// checksum machinery, and the executors' degraded-mode re-planning --
// under every fault class a proposal must either produce a correct scan
// or raise a typed error, never a silently wrong result.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/executor.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/transfer.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace ms = mgs::sim;
namespace mt = mgs::topo;
using mgs::baselines::reference_batch_scan;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 4;

using Factory =
    std::function<std::unique_ptr<mc::ScanExecutor>(mc::ScanContext&)>;

struct Proposal {
  const char* name;
  Factory make;
};

std::vector<Proposal> multi_gpu_proposals() {
  return {
      {"Scan-MPS", [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }},
      {"Scan-MPS-direct",
       [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4, true); }},
      {"Scan-MP-PC",
       [](mc::ScanContext& c) { return mc::make_mppc_executor(c, 2, 4); }},
      {"Scan-MPS-multinode",
       [](mc::ScanContext& c) { return mc::make_multinode_executor(c, 1, 8); }},
  };
}

struct Outcome {
  double seconds = 0.0;
  std::vector<std::int32_t> out;
  mc::RunResult result;
};

/// One fresh cluster of `nodes` nodes + context + executor run,
/// optionally under a fault plan ("" = no injector attached at all).
Outcome run_proposal(const Factory& make, const std::string& spec,
                     std::span<const std::int32_t> data, std::int64_t n,
                     std::int64_t g, int nodes = 1) {
  auto cluster = mt::tsubame_kfc_cluster(nodes);
  std::unique_ptr<ms::FaultInjector> fi;
  if (!spec.empty()) {
    fi = std::make_unique<ms::FaultInjector>(ms::parse_fault_plan(spec));
    cluster.set_fault_injector(fi.get());
  }
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(n, g);
  Outcome o;
  o.out.resize(static_cast<std::size_t>(n * g));
  o.result = ex->run(data, o.out, mc::ScanKind::kInclusive);
  o.seconds = o.result.seconds;
  return o;
}

}  // namespace

// -------------------------------------------------------------- the parser

TEST(FaultPlanParser, ParsesEventsAndPolicy) {
  const auto plan = ms::parse_fault_plan(
      "transient:src=0,dst=1,op=3,count=2; corrupt:prob=0.25;"
      "link-down:src=2,dst=3; device-down:dev=5,at=0.5;"
      "straggler:dev=1,factor=4;"
      "policy:retries=7,backoff-us=10,timeout-s=2,seed=99");
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, ms::FaultKind::kTransientTransfer);
  EXPECT_EQ(plan.events[0].src, 0);
  EXPECT_EQ(plan.events[0].dst, 1);
  EXPECT_EQ(plan.events[0].op, 3);
  EXPECT_EQ(plan.events[0].count, 2);
  EXPECT_EQ(plan.events[1].kind, ms::FaultKind::kCorruption);
  EXPECT_DOUBLE_EQ(plan.events[1].probability, 0.25);
  EXPECT_EQ(plan.events[2].kind, ms::FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[3].kind, ms::FaultKind::kDeviceDown);
  EXPECT_EQ(plan.events[3].device, 5);
  EXPECT_DOUBLE_EQ(plan.events[3].at_seconds, 0.5);
  EXPECT_EQ(plan.events[4].kind, ms::FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(plan.events[4].factor, 4.0);
  EXPECT_EQ(plan.max_retries, 7);
  EXPECT_DOUBLE_EQ(plan.backoff_base_us, 10.0);
  EXPECT_DOUBLE_EQ(plan.timeout_seconds, 2.0);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(ms::parse_fault_plan("").empty());
}

TEST(FaultPlanParser, RejectsMalformedSpecs) {
  EXPECT_THROW(ms::parse_fault_plan("explode:dev=1"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:op=0,bogus=1"),
               mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:op=abc"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:prob=2"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient:count=3"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("device-down:at=1"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("link-down:src=0"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("straggler:factor=2"), mgs::util::Error);
  EXPECT_THROW(ms::parse_fault_plan("transient"), mgs::util::Error);
}

TEST(FaultPlanParser, ToSpecRoundTripsExactly) {
  const std::string spec =
      "transient:src=0,dst=1,op=3,count=2;corrupt:prob=0.25;"
      "link-down:src=2,dst=3;device-down:dev=5,at=0.5;"
      "straggler:dev=1,factor=4;"
      "policy:retries=7,backoff-us=10,timeout-s=2,seed=99";
  const auto plan = ms::parse_fault_plan(spec);
  const std::string printed = ms::to_spec(plan);
  const auto replan = ms::parse_fault_plan(printed);
  // The canonical form is a fixpoint: printing the re-parsed plan gives
  // the same string, and the plans agree field-for-field.
  EXPECT_EQ(ms::to_spec(replan), printed);
  ASSERT_EQ(replan.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(replan.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(replan.events[i].src, plan.events[i].src) << i;
    EXPECT_EQ(replan.events[i].dst, plan.events[i].dst) << i;
    EXPECT_EQ(replan.events[i].device, plan.events[i].device) << i;
    EXPECT_EQ(replan.events[i].op, plan.events[i].op) << i;
    EXPECT_EQ(replan.events[i].count, plan.events[i].count) << i;
    EXPECT_EQ(replan.events[i].probability, plan.events[i].probability) << i;
    EXPECT_EQ(replan.events[i].at_seconds, plan.events[i].at_seconds) << i;
    EXPECT_EQ(replan.events[i].factor, plan.events[i].factor) << i;
  }
  EXPECT_EQ(replan.max_retries, plan.max_retries);
  EXPECT_EQ(replan.backoff_base_us, plan.backoff_base_us);
  EXPECT_EQ(replan.timeout_seconds, plan.timeout_seconds);
  EXPECT_EQ(replan.seed, plan.seed);

  // Doubles that have no short decimal form must still survive bit-exactly
  // (to_spec prints round-trippable precision).
  ms::FaultPlan p;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kStraggler;
  ev.device = 0;
  ev.factor = 0.1 + 0.2;  // 0.30000000000000004
  p.events.push_back(ev);
  const auto q = ms::parse_fault_plan(ms::to_spec(p));
  ASSERT_EQ(q.events.size(), 1u);
  EXPECT_EQ(q.events[0].factor, ev.factor);

  EXPECT_TRUE(ms::to_spec(ms::FaultPlan{}).empty());
}

TEST(FaultReport, SummaryDistinguishesHealthyRecoveredDegraded) {
  ms::FaultReport r;
  EXPECT_EQ(r.summary(), "healthy");
  r.counters.retries = 2;
  r.counters.transient_failures = 2;
  EXPECT_NE(r.summary().find("recovered"), std::string::npos);
  r.degraded = true;
  r.degraded_mode = "Scan-MPS W=2";
  EXPECT_NE(r.summary().find("degraded"), std::string::npos);
  EXPECT_NE(r.summary().find("Scan-MPS W=2"), std::string::npos);
}

// ----------------------------------------------------- the transfer engine

namespace {

/// dev-to-dev copy of `n` ints under `spec`; returns (result, counters ok,
/// payload intact). Uses value i*3+1 so a stuck-at corruption is visible.
struct CopyProbe {
  mt::TransferResult result;
  ms::FaultCounters counters;
  bool payload_ok = false;
};

CopyProbe probe_copy(const std::string& spec, int src_dev, int dst_dev,
                     std::int64_t n = 1024) {
  auto c = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (!spec.empty()) {
    fi = std::make_unique<ms::FaultInjector>(ms::parse_fault_plan(spec));
    c.set_fault_injector(fi.get());
  }
  auto src = c.device(src_dev).alloc<int>(n);
  auto dst = c.device(dst_dev).alloc<int>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    src.host_span()[static_cast<std::size_t>(i)] = static_cast<int>(i * 3 + 1);
  }
  mt::TransferEngine eng(c);
  CopyProbe p;
  p.result = eng.copy(dst, 0, src, 0, n);
  p.counters = eng.fault_counters();
  p.payload_ok = true;
  for (std::int64_t i = 0; i < n; ++i) {
    if (dst.host_span()[static_cast<std::size_t>(i)] !=
        static_cast<int>(i * 3 + 1)) {
      p.payload_ok = false;
    }
  }
  return p;
}

}  // namespace

TEST(TransferFaults, TransientFailureRetriesAndConverges) {
  const auto healthy = probe_copy("", 0, 1);
  const auto faulted = probe_copy("transient:src=0,dst=1,op=0", 0, 1);
  EXPECT_TRUE(faulted.payload_ok);
  EXPECT_EQ(faulted.counters.transient_failures, 1u);
  EXPECT_EQ(faulted.counters.retries, 1u);
  EXPECT_GT(faulted.counters.retry_seconds, 0.0);
  // The retry and its backoff cost modeled time.
  EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
  EXPECT_EQ(faulted.result.link, mt::LinkType::kP2P);
}

TEST(TransferFaults, DownP2PLinkReroutesThroughHostStaging) {
  const auto healthy = probe_copy("", 0, 1);
  const auto faulted = probe_copy("link-down:src=0,dst=1", 0, 1);
  EXPECT_TRUE(faulted.payload_ok);
  EXPECT_EQ(faulted.result.link, mt::LinkType::kHostStaged);
  EXPECT_EQ(faulted.counters.rerouted_transfers, 1u);
  EXPECT_EQ(faulted.counters.rerouted_bytes, 1024u * sizeof(int));
  EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
}

TEST(TransferFaults, DownHostStagedLinkHasNoAlternateRoute) {
  // Devices 0 and 4 sit on different PCIe networks: host staging is
  // already the only path, so a down link is fatal -- and typed.
  try {
    probe_copy("link-down:src=0,dst=4", 0, 4);
    FAIL() << "expected TransferError";
  } catch (const mt::TransferError& e) {
    EXPECT_EQ(e.src_dev, 0);
    EXPECT_EQ(e.dst_dev, 4);
    EXPECT_NE(std::string(e.what()).find("no alternate route"),
              std::string::npos);
  }
}

TEST(TransferFaults, CorruptionIsDetectedAndRepaired) {
  const auto healthy = probe_copy("", 0, 1);
  const auto faulted = probe_copy("corrupt:op=0", 0, 1);
  EXPECT_TRUE(faulted.payload_ok);  // checksum caught it, payload re-copied
  EXPECT_EQ(faulted.counters.corruptions_detected, 1u);
  EXPECT_EQ(faulted.counters.retries, 1u);
  EXPECT_GT(faulted.result.seconds, healthy.result.seconds);
}

TEST(TransferFaults, TimeoutsExhaustTheRetryBudget) {
  try {
    probe_copy("policy:timeout-s=1e-15,retries=2", 0, 1);
    FAIL() << "expected TransferError";
  } catch (const mt::TransferError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(TransferFaults, StragglerSlowsItsLinksOnly) {
  const auto healthy = probe_copy("", 0, 1);
  const auto slow = probe_copy("straggler:dev=1,factor=4", 0, 1);
  const auto other = probe_copy("straggler:dev=1,factor=4", 2, 3);
  EXPECT_TRUE(slow.payload_ok);
  EXPECT_GT(slow.result.seconds, healthy.result.seconds);
  EXPECT_DOUBLE_EQ(other.result.seconds, healthy.result.seconds);
  EXPECT_FALSE(slow.counters.any());  // slow, but nothing failed
}

TEST(TransferFaults, MidRunDeviceDownRaisesTypedError) {
  auto c = mt::tsubame_kfc_cluster(1);
  auto fi = ms::FaultInjector(ms::parse_fault_plan("device-down:dev=1,at=1"));
  c.set_fault_injector(&fi);
  auto src = c.device(0).alloc<int>(16);
  auto dst = c.device(1).alloc<int>(16);
  mt::TransferEngine eng(c);
  eng.copy(dst, 0, src, 0, 16);  // before t=1s: fine
  c.device(0).clock().advance(2.0);
  EXPECT_THROW(eng.copy(dst, 0, src, 0, 16), mt::TransferError);
}

// ------------------------------------------------- executors under faults

TEST(ExecutorFaults, DisabledFaultsAreBitIdentical) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 11);
  for (const auto& p : multi_gpu_proposals()) {
    const auto plain = run_proposal(p.make, "", data, kN, kG);
    // Empty plan, injector attached: the zero-overhead guarantee.
    const auto armed = run_proposal(p.make, "policy:retries=4", data, kN, kG);
    EXPECT_DOUBLE_EQ(plain.seconds, armed.seconds) << p.name;
    EXPECT_EQ(plain.out, armed.out) << p.name;
    EXPECT_FALSE(armed.result.faults.any()) << p.name;
    EXPECT_FALSE(armed.result.faults.degraded) << p.name;
  }
}

TEST(ExecutorFaults, TransientFaultsRetryAndConvergeEveryProposal) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 12);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto healthy = run_proposal(p.make, "", data, kN, kG);
    const auto faulted =
        run_proposal(p.make, "transient:op=0,count=2", data, kN, kG);
    EXPECT_EQ(faulted.out, expect) << p.name;
    EXPECT_GT(faulted.result.faults.counters.transient_failures, 0u) << p.name;
    EXPECT_GT(faulted.result.faults.counters.retries, 0u) << p.name;
    EXPECT_GT(faulted.seconds, healthy.seconds) << p.name;
    EXPECT_FALSE(faulted.result.faults.degraded) << p.name;
  }
}

TEST(ExecutorFaults, LinkDownReroutesAndStaysCorrect) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 13);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  Factory mps = [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); };
  const auto healthy = run_proposal(mps, "", data, kN, kG);
  const auto faulted =
      run_proposal(mps, "link-down:src=0,dst=1", data, kN, kG);
  EXPECT_EQ(faulted.out, expect);
  EXPECT_GT(faulted.result.faults.counters.rerouted_transfers, 0u);
  EXPECT_GT(faulted.result.faults.counters.rerouted_bytes, 0u);
  EXPECT_GT(faulted.seconds, healthy.seconds);
}

TEST(ExecutorFaults, CorruptionIsRepairedEndToEnd) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 14);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  Factory mps = [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); };
  const auto faulted =
      run_proposal(mps, "corrupt:op=0,count=1000", data, kN, kG);
  EXPECT_EQ(faulted.out, expect);
  EXPECT_GT(faulted.result.faults.counters.corruptions_detected, 0u);
}

TEST(ExecutorFaults, DeviceDownDegradesEveryProposalToACorrectScan) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 15);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto degraded =
        run_proposal(p.make, "device-down:dev=2", data, kN, kG);
    EXPECT_EQ(degraded.out, expect) << p.name;
    EXPECT_TRUE(degraded.result.faults.degraded) << p.name;
    EXPECT_FALSE(degraded.result.faults.degraded_mode.empty()) << p.name;
    ASSERT_FALSE(degraded.result.faults.excluded_devices.empty()) << p.name;
    EXPECT_EQ(degraded.result.faults.excluded_devices.front(), 2) << p.name;
    EXPECT_FALSE(degraded.result.faults.replanned.empty()) << p.name;
  }
}

TEST(ExecutorFaults, AllButOneDeviceDownCollapsesToScanSp) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 16);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  // Kill devices 1..7: every proposal must fall back to Scan-SP on dev 0.
  const std::string spec =
      "device-down:dev=1;device-down:dev=2;device-down:dev=3;"
      "device-down:dev=4;device-down:dev=5;device-down:dev=6;"
      "device-down:dev=7";
  for (const auto& p : multi_gpu_proposals()) {
    const auto degraded = run_proposal(p.make, spec, data, kN, kG);
    EXPECT_EQ(degraded.out, expect) << p.name;
    EXPECT_TRUE(degraded.result.faults.degraded) << p.name;
    EXPECT_NE(degraded.result.faults.degraded_mode.find("Scan-SP"),
              std::string::npos)
        << p.name << ": " << degraded.result.faults.degraded_mode;
  }
}

TEST(ExecutorFaults, SpExecutorRelocatesOffADownDevice) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 17);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  Factory sp = [](mc::ScanContext& c) { return mc::make_sp_executor(c, 0); };
  const auto degraded = run_proposal(sp, "device-down:dev=0", data, kN, kG);
  EXPECT_EQ(degraded.out, expect);
  EXPECT_TRUE(degraded.result.faults.degraded);
  EXPECT_EQ(degraded.result.faults.excluded_devices,
            std::vector<int>{0});
}

TEST(ExecutorFaults, EpochMovesReplanAndInvalidateCachedPlans) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  ms::FaultInjector fi{ms::FaultPlan{}};
  cluster.set_fault_injector(&fi);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, 8);
  ex->prepare(kN, kG);

  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 18);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  std::vector<std::int32_t> out(data.size());

  const auto healthy = ex->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, expect);
  EXPECT_FALSE(healthy.faults.degraded);
  const std::size_t cached = ctx.plan_cache_size();

  // A device dies after prepare(): the next run must notice via the
  // liveness epoch, re-place on the survivors and retire the 8-GPU plan.
  fi.mark_device_down(7);
  std::fill(out.begin(), out.end(), 0);
  const auto degraded = ex->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, expect);
  EXPECT_TRUE(degraded.faults.degraded);
  EXPECT_EQ(degraded.faults.excluded_devices, std::vector<int>{7});
  EXPECT_GE(degraded.faults.invalidated_plans, 1u);
  EXPECT_LT(ctx.plan_cache_size(), cached + 1);
  EXPECT_NE(ex->describe().find("degraded"), std::string::npos);

  // The device recovers: the epoch moves again and the nominal placement
  // comes back.
  fi.mark_device_up(7);
  std::fill(out.begin(), out.end(), 0);
  const auto recovered = ex->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, expect);
  EXPECT_FALSE(recovered.faults.degraded);
}

// ------------------------------------------------ mid-run resume / restart

namespace {

/// run_proposal plus the spans a TraceSession recorded, for asserting
/// which stages actually (re-)ran. Takes a FaultPlan directly so tests
/// can inject at exact simulated instants read from a healthy trace.
struct Traced {
  Outcome o;
  std::vector<mgs::obs::SpanRecord> spans;
};

Traced run_traced(const Factory& make, const ms::FaultPlan* plan,
                  std::span<const std::int32_t> data, std::int64_t n,
                  std::int64_t g) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (plan != nullptr) {
    fi = std::make_unique<ms::FaultInjector>(*plan);
    cluster.set_fault_injector(fi.get());
  }
  mgs::obs::TraceSession ts;
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(n, g);
  Traced t;
  t.o.out.resize(static_cast<std::size_t>(n * g));
  t.o.result = ex->run(data, t.o.out, mc::ScanKind::kInclusive);
  t.o.seconds = t.o.result.seconds;
  t.spans = ts.spans();
  return t;
}

std::size_t count_stage(const std::vector<mgs::obs::SpanRecord>& spans,
                        const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const auto& s) {
        return s.kind == mgs::obs::SpanKind::kStage && s.name == name;
      }));
}

/// Midpoint of the first kStage span called `name`; fails the test (and
/// returns 0) when the trace has no such stage.
double stage_midpoint(const std::vector<mgs::obs::SpanRecord>& spans,
                      const std::string& name) {
  for (const auto& s : spans) {
    if (s.kind == mgs::obs::SpanKind::kStage && s.name == name) {
      return (s.start_seconds + s.end_seconds) / 2.0;
    }
  }
  ADD_FAILURE() << "no '" << name << "' stage span in the healthy trace";
  return 0.0;
}

}  // namespace

// Same mid-run loss on the event-driven overlap pipeline: the checkpoint
// must resume (from whichever boundary held) with bit-identical output.
TEST(ExecutorFaults, OverlapMidRunDeviceDownResumesBitIdentical) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 20);
  Factory mps_over = [](mc::ScanContext& c) {
    return mc::make_mps_executor(
        c, 4, false, mc::PipelineChoice{mc::PipelineMode::kOverlap, 0});
  };
  const auto healthy = run_traced(mps_over, nullptr, data, kN, kG);
  const double at = stage_midpoint(healthy.spans, "Stage2+Comm");
  ASSERT_GT(at, 0.0);

  ms::FaultPlan plan;
  ms::FaultEvent ev;
  ev.kind = ms::FaultKind::kDeviceDown;
  ev.device = 2;
  ev.at_seconds = at;
  plan.events.push_back(ev);
  const auto faulted = run_traced(mps_over, &plan, data, kN, kG);

  EXPECT_EQ(faulted.o.out, healthy.o.out);
  const auto& f = faulted.o.result.faults;
  EXPECT_FALSE(f.resumed_stages.empty());
  EXPECT_TRUE(f.degraded);
  EXPECT_EQ(count_stage(faulted.spans, "Recovery"), f.resumed_stages.size());
}

// ------------------------------------- resume matrix over both schedules

/// The Scan-MPS resume scenarios, run on the synchronous (joined) and the
/// overlapped schedule. Every case checks what any resume must hold:
/// output bit-identical to the healthy run, one Recovery span per resumed
/// stage, and the dead device excluded from the degraded report.
class MpsResume : public ::testing::TestWithParam<mc::PipelineMode> {
 protected:
  /// Two waves, so the overlapped checkpoint holds several cells per
  /// device (the synchronous schedule ignores the wave count).
  Factory mps() const {
    const auto mode = GetParam();
    return [mode](mc::ScanContext& c) {
      return mc::make_mps_executor(c, 4, false, mc::PipelineChoice{mode, 2});
    };
  }
  bool overlap() const { return GetParam() == mc::PipelineMode::kOverlap; }
  /// The stage span Stage 2 runs inside on this schedule.
  const char* stage2() const { return overlap() ? "Stage2+Comm" : "Stage2"; }

  /// Kill `dev` at `at`, rerun, and check the invariants of every resume.
  Traced kill(const Traced& healthy, int dev, double at,
              std::span<const std::int32_t> data) const {
    ms::FaultPlan plan;
    ms::FaultEvent ev;
    ev.kind = ms::FaultKind::kDeviceDown;
    ev.device = dev;
    ev.at_seconds = at;
    plan.events.push_back(ev);
    Traced faulted = run_traced(mps(), &plan, data, kN, kG);
    EXPECT_EQ(faulted.o.out, healthy.o.out);  // bit-identical, not close
    const auto& f = faulted.o.result.faults;
    EXPECT_FALSE(f.resumed_stages.empty());
    EXPECT_EQ(count_stage(faulted.spans, "Recovery"), f.resumed_stages.size());
    EXPECT_EQ(count_stage(healthy.spans, "Recovery"), 0u);
    EXPECT_TRUE(f.degraded);
    EXPECT_EQ(f.excluded_devices, std::vector<int>{dev});
    // Recovery costs time: the degraded run is slower, never faster.
    EXPECT_GT(faulted.o.seconds, healthy.o.seconds);
    return faulted;
  }
};

// The flagship resume scenario: a non-master device dies in the middle of
// Stage 2. Its cells were all gathered already, so completed Stage-1 and
// gather work survives -- the run resumes from the Stage2 boundary
// (re-scattering only the dead device's portions) without re-running
// Stage 1. Device 3 is scattered to last on both schedules, so its
// scatter is still ahead of the fault.
TEST_P(MpsResume, MidStage2DeviceDownResumesWithoutRerunningStage1) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 19);
  const auto healthy = run_traced(mps(), nullptr, data, kN, kG);
  const double at = stage_midpoint(healthy.spans, stage2());
  ASSERT_GT(at, 0.0);
  const auto faulted = kill(healthy, 3, at, data);
  EXPECT_EQ(faulted.o.result.faults.resumed_stages,
            std::vector<std::string>{"Stage2"});
  // The span trace proves Stage 1 never re-ran.
  EXPECT_EQ(count_stage(faulted.spans, "Stage1"), 1u);
}

// Death of the MASTER mid-run: the gathered aux array dies with it, so
// the resume must regress the gather/scan flags, re-place the master role
// and re-run Stage 1 for the master's own portion (its reductions were
// only on the master).
TEST_P(MpsResume, MasterDeathMidRunResumesOnNewMaster) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 21);
  const auto healthy = run_traced(mps(), nullptr, data, kN, kG);
  const double at = stage_midpoint(healthy.spans, stage2());
  ASSERT_GT(at, 0.0);
  const auto faulted = kill(healthy, 0, at, data);
  EXPECT_EQ(count_stage(faulted.spans, "Stage1"), 2u);
}

// A non-master device dies while the gather is in flight -- mid AuxGather
// on the synchronous schedule, mid the first gather copy on the
// overlapped one -- before its chunk reductions reached the master
// (device 3 is gathered last on both schedules). The resume regenerates
// them on the replacement (a second Stage1 span) and continues from the
// gather boundary.
TEST_P(MpsResume, MidGatherDeviceDownRegeneratesLostReductions) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 25);
  const auto healthy = run_traced(mps(), nullptr, data, kN, kG);
  double at = 0.0;
  if (overlap()) {
    const auto first = std::find_if(
        healthy.spans.begin(), healthy.spans.end(), [](const auto& s) {
          return s.kind == mgs::obs::SpanKind::kTransfer;
        });
    ASSERT_NE(first, healthy.spans.end());
    at = (first->start_seconds + first->end_seconds) / 2.0;
  } else {
    at = stage_midpoint(healthy.spans, "AuxGather");
  }
  ASSERT_GT(at, 0.0);
  const auto faulted = kill(healthy, 3, at, data);
  EXPECT_EQ(faulted.o.result.faults.resumed_stages,
            std::vector<std::string>{"AuxGather"});
  EXPECT_EQ(count_stage(faulted.spans, "Stage1"), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, MpsResume,
    ::testing::Values(mc::PipelineMode::kSync, mc::PipelineMode::kOverlap),
    [](const ::testing::TestParamInfo<mc::PipelineMode>& info) {
      return info.param == mc::PipelineMode::kSync ? std::string("Sync")
                                                   : std::string("Overlap");
    });

// A device death the placement could not see (at > 0) must still end in a
// correct scan for every multi-GPU proposal: Scan-MPS resumes from its
// checkpoint, the direct / MP-PC / multinode paths restart on survivors.
TEST(ExecutorFaults, MidRunDeviceDownRecoversEveryProposal) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 22);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto r =
        run_proposal(p.make, "device-down:dev=1,at=1e-9", data, kN, kG);
    EXPECT_EQ(r.out, expect) << p.name;
    EXPECT_TRUE(r.result.faults.degraded) << p.name;
    ASSERT_FALSE(r.result.faults.excluded_devices.empty()) << p.name;
    EXPECT_EQ(r.result.faults.excluded_devices.front(), 1) << p.name;
    EXPECT_FALSE(r.result.faults.replanned.empty()) << p.name;
  }
}

// A restart keeps the work it threw away on the clock. GPU 1 dies at 10%
// of the healthy makespan and the direct, MP-PC and multinode proposals
// restart on the survivors where the failed attempt was cut off: the run
// costs that instant plus a run placed on the survivors from the start,
// charged as one Restart window that keeps the breakdown telescoping.
TEST(ExecutorFaults, RestartKeepsTheLostWindowOnTheClock) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 26);
  for (const auto& p : multi_gpu_proposals()) {
    if (std::string(p.name) == "Scan-MPS") continue;  // resumes instead
    const auto healthy = run_traced(p.make, nullptr, data, kN, kG);
    ms::FaultPlan plan;
    ms::FaultEvent ev;
    ev.kind = ms::FaultKind::kDeviceDown;
    ev.device = 1;
    ev.at_seconds = 0.1 * healthy.o.seconds;
    plan.events.push_back(ev);
    const auto faulted = run_traced(p.make, &plan, data, kN, kG);
    const auto survivors =
        run_proposal(p.make, "device-down:dev=1", data, kN, kG);

    EXPECT_EQ(faulted.o.out, healthy.o.out) << p.name;
    std::vector<double> restarts;
    for (const auto& s : faulted.spans) {
      if (s.kind == mgs::obs::SpanKind::kFault && s.name == "restart") {
        restarts.push_back(s.start_seconds);
      }
    }
    ASSERT_EQ(restarts.size(), 1u) << p.name;
    const double t = restarts.front();
    EXPECT_GE(t, ev.at_seconds) << p.name;
    const auto& r = faulted.o.result;
    EXPECT_EQ(r.breakdown.get("Restart"), t) << p.name;
    EXPECT_EQ(count_stage(faulted.spans, "Restart"), 1u) << p.name;
    EXPECT_NEAR(r.breakdown.total(), r.seconds, 1e-12 + 1e-9 * r.seconds)
        << p.name;
    EXPECT_NEAR(r.seconds, t + survivors.seconds, 1e-12 * r.seconds)
        << p.name;
  }
}

// A restart throws the aborted attempt's work away, not its cost: the
// retries it paid for stay in the run's counters. Each transient fault
// fires on op 0 of its link, inside the first attempt, which a later
// device death aborts; the restarted attempt no longer meets it (the
// link's op counter has moved on), so the run reports exactly the
// counters of the same fault without the death.
TEST(ExecutorFaults, RestartKeepsTheAbortedAttemptsCounters) {
  constexpr std::int64_t n = 1 << 16;
  const mc::PipelineChoice sync{mc::PipelineMode::kSync, 0};
  struct Scenario {
    const char* name;
    int nodes;
    std::int64_t g;
    Factory make;
    std::string transient;
    std::string kill;
  };
  const std::vector<Scenario> scenarios = {
      {"Scan-MPS-multinode", 2, 4,
       [sync](mc::ScanContext& c) {
         return mc::make_multinode_executor(c, 2, 4, sync);
       },
       "transient:src=1,dst=0,op=0,count=1", "device-down:dev=9,at=2e-5"},
      {"Scan-MPS-direct", 1, 4,
       [sync](mc::ScanContext& c) {
         return mc::make_mps_executor(c, 4, true, sync);
       },
       "transient:src=0,dst=1,op=0,count=1", "device-down:dev=2,at=2e-5"},
      {"Scan-MP-PC", 1, 8,
       [sync](mc::ScanContext& c) {
         return mc::make_mppc_executor(c, 2, 4, 1, sync);
       },
       "transient:src=1,dst=0,op=0,count=1", "device-down:dev=5,at=1e-5"},
  };
  for (const Scenario& s : scenarios) {
    const auto data =
        mgs::util::random_i32(static_cast<std::size_t>(n * s.g), 27);
    const auto alone = run_proposal(s.make, s.transient, data, n, s.g,
                                    s.nodes);
    const auto killed = run_proposal(s.make, s.transient + ";" + s.kill,
                                     data, n, s.g, s.nodes);
    const ms::FaultCounters& want = alone.result.faults.counters;
    const ms::FaultCounters& got = killed.result.faults.counters;
    ASSERT_EQ(want.retries, 1u) << s.name;
    EXPECT_EQ(killed.out, alone.out) << s.name;
    ASSERT_FALSE(killed.result.faults.replanned.empty()) << s.name;
    EXPECT_NE(killed.result.faults.replanned.back().find("restarted"),
              std::string::npos)
        << s.name;
    EXPECT_EQ(got.transient_failures, want.transient_failures) << s.name;
    EXPECT_EQ(got.retries, want.retries) << s.name;
    EXPECT_EQ(got.retry_seconds, want.retry_seconds) << s.name;
  }
}

// --------------------------------------------------- compute stragglers

// kStraggler now reaches compute kernels through simt::launch, not just
// transfers: the whole scan slows (monotonically in the factor), on both
// pipeline paths, without deadlock and without losing bit-identity.
TEST(ExecutorFaults, ComputeStragglerSlowsTheScanButStaysCorrect) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 23);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto mode :
       {mc::PipelineMode::kSync, mc::PipelineMode::kOverlap}) {
    Factory mps = [mode](mc::ScanContext& c) {
      return mc::make_mps_executor(c, 4, false,
                                   mc::PipelineChoice{mode, 0});
    };
    const auto healthy = run_proposal(mps, "", data, kN, kG);
    const auto slow2 =
        run_proposal(mps, "straggler:dev=1,factor=2", data, kN, kG);
    const auto slow8 =
        run_proposal(mps, "straggler:dev=1,factor=8", data, kN, kG);
    EXPECT_EQ(slow2.out, expect);
    EXPECT_EQ(slow8.out, expect);
    EXPECT_GT(slow2.seconds, healthy.seconds);
    EXPECT_GT(slow8.seconds, slow2.seconds);
    EXPECT_FALSE(slow8.result.faults.degraded);
  }
}

// A straggling MASTER stretches Stage 2 itself; the schedule must absorb
// it on every proposal (the multinode sync path once mis-attributed this
// window and tripped the breakdown invariant).
TEST(ExecutorFaults, ComputeStragglerOnTheMasterEveryProposal) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 24);
  const auto expect = reference_batch_scan<std::int32_t>(
      data, kN, kG, mc::ScanKind::kInclusive);
  for (const auto& p : multi_gpu_proposals()) {
    const auto slow =
        run_proposal(p.make, "straggler:dev=0,factor=4", data, kN, kG);
    EXPECT_EQ(slow.out, expect) << p.name;
    // Telescoping must survive the skewed clocks.
    EXPECT_NEAR(slow.result.breakdown.total(), slow.seconds,
                1e-12 + 1e-9 * slow.seconds)
        << p.name;
  }
}
