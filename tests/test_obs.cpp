// Tests for the mgs::obs layer: hierarchical span tracing across all five
// executors, labeled metrics aggregation, critical-path attribution (the
// programmatic Figure 14), fault-recovery spans, the exporters and the
// run-report loader -- plus the zero-overhead guarantee when no session
// is installed.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/executor.hpp"
#include "mgs/core/run_report.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/obs/critical_path.hpp"
#include "mgs/obs/export.hpp"
#include "mgs/obs/report.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace mo = mgs::obs;
namespace ms = mgs::sim;
namespace mt = mgs::topo;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 4;

using Factory =
    std::function<std::unique_ptr<mc::ScanExecutor>(mc::ScanContext&)>;

struct Proposal {
  const char* name;
  Factory make;
};

std::vector<Proposal> all_proposals() {
  return {
      {"Scan-SP", [](mc::ScanContext& c) { return mc::make_sp_executor(c); }},
      {"Scan-MPS",
       [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }},
      {"Scan-MPS-direct",
       [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4, true); }},
      {"Scan-MP-PC",
       [](mc::ScanContext& c) { return mc::make_mppc_executor(c, 2, 4); }},
      {"Scan-MPS-multinode",
       [](mc::ScanContext& c) { return mc::make_multinode_executor(c, 1, 8); }},
  };
}

struct Outcome {
  mc::RunResult result;
  std::vector<std::int32_t> out;
  std::vector<mo::SpanRecord> spans;  ///< empty when run without a session
};

/// One fresh cluster + context + executor run, optionally traced and
/// optionally under a fault plan.
Outcome run_proposal(const Factory& make, bool traced,
                     const std::string& fault_spec,
                     std::span<const std::int32_t> data, std::int64_t n,
                     std::int64_t g) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<ms::FaultInjector> fi;
  if (!fault_spec.empty()) {
    fi = std::make_unique<ms::FaultInjector>(ms::parse_fault_plan(fault_spec));
    cluster.set_fault_injector(fi.get());
  }
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(n, g);
  Outcome o;
  o.out.resize(static_cast<std::size_t>(n * g));
  if (traced) {
    mo::TraceSession ts;
    o.result = ex->run(data, o.out, mc::ScanKind::kInclusive);
    o.spans = ts.spans();
  } else {
    o.result = ex->run(data, o.out, mc::ScanKind::kInclusive);
  }
  return o;
}

const mo::SpanRecord* find_by_id(const std::vector<mo::SpanRecord>& spans,
                                 std::uint64_t id) {
  for (const auto& s : spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

/// Walk parent links from `s` to a root; returns the root span.
const mo::SpanRecord& root_of(const std::vector<mo::SpanRecord>& spans,
                              const mo::SpanRecord& s) {
  const mo::SpanRecord* cur = &s;
  while (cur->parent != 0) {
    const auto* p = find_by_id(spans, cur->parent);
    EXPECT_NE(p, nullptr);
    if (p == nullptr) break;
    cur = p;
  }
  return *cur;
}

}  // namespace

// ----------------------------------------------------------- span tracing

TEST(ObsSpans, SessionInstallAndNestRestore) {
  EXPECT_EQ(mo::TraceSession::current(), nullptr);
  {
    mo::TraceSession outer;
    EXPECT_EQ(mo::TraceSession::current(), &outer);
    {
      mo::TraceSession inner;
      EXPECT_EQ(mo::TraceSession::current(), &inner);
    }
    EXPECT_EQ(mo::TraceSession::current(), &outer);
  }
  EXPECT_EQ(mo::TraceSession::current(), nullptr);
}

TEST(ObsSpans, ParentageFollowsOpenStack) {
  mo::TraceSession ts;
  mo::SpanRecord run;
  run.name = "run";
  run.kind = mo::SpanKind::kRun;
  const auto run_id = ts.open_span(run);

  mo::SpanRecord stage;
  stage.name = "stage";
  stage.kind = mo::SpanKind::kStage;
  const auto stage_id = ts.open_span(stage);

  mo::SpanRecord leaf;
  leaf.name = "kernel";
  leaf.kind = mo::SpanKind::kKernel;
  const auto leaf_id = ts.add_event(leaf);

  ts.close_span(stage_id, 1.0);

  mo::SpanRecord after;
  after.name = "late";
  const auto after_id = ts.add_event(after);
  ts.close_span(run_id, 2.0);

  const auto spans = ts.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(find_by_id(spans, run_id)->parent, 0u);
  EXPECT_EQ(find_by_id(spans, stage_id)->parent, run_id);
  EXPECT_EQ(find_by_id(spans, leaf_id)->parent, stage_id);
  // Once the stage closed, new events parent to the still-open run.
  EXPECT_EQ(find_by_id(spans, after_id)->parent, run_id);
}

TEST(ObsSpans, EveryExecutorProducesANestedSpanTree) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 7);
  for (const auto& p : all_proposals()) {
    const auto o = run_proposal(p.make, true, "", data, kN, kG);
    ASSERT_FALSE(o.spans.empty()) << p.name;

    // Exactly one run span, named like the executor, and it is a root.
    const mo::SpanRecord* run = nullptr;
    int runs = 0;
    for (const auto& s : o.spans) {
      if (s.kind == mo::SpanKind::kRun) {
        run = &s;
        ++runs;
      }
    }
    ASSERT_EQ(runs, 1) << p.name;
    EXPECT_EQ(run->parent, 0u) << p.name;
    EXPECT_EQ(run->name, p.name);

    bool saw_plan = false, saw_stage = false, saw_kernel = false;
    for (const auto& s : o.spans) {
      // Parents precede children (ids are insertion-ordered).
      if (s.parent != 0) {
        ASSERT_NE(find_by_id(o.spans, s.parent), nullptr) << p.name;
        EXPECT_LT(s.parent, s.id) << p.name;
      }
      // Everything recorded during the run hangs off the run span.
      EXPECT_EQ(root_of(o.spans, s).id, run->id) << p.name << " " << s.name;
      saw_plan |= s.kind == mo::SpanKind::kPlan;
      saw_stage |= s.kind == mo::SpanKind::kStage;
      if (s.kind == mo::SpanKind::kKernel) {
        saw_kernel = true;
        // Kernels record under a stage, not directly under the run.
        const auto* parent = find_by_id(o.spans, s.parent);
        ASSERT_NE(parent, nullptr) << p.name;
        EXPECT_EQ(parent->kind, mo::SpanKind::kStage) << p.name;
      }
    }
    EXPECT_TRUE(saw_plan) << p.name;
    EXPECT_TRUE(saw_stage) << p.name;
    EXPECT_TRUE(saw_kernel) << p.name;
  }
}

TEST(ObsSpans, MultiGpuRunsRecordTransfers) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 8);
  const auto o = run_proposal(
      [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }, true,
      "", data, kN, kG);
  int transfers = 0;
  for (const auto& s : o.spans) {
    if (s.kind == mo::SpanKind::kTransfer) {
      ++transfers;
      EXPECT_GT(s.bytes, 0u);
      EXPECT_GE(s.device, 0);
    }
  }
  EXPECT_GT(transfers, 0);
}

TEST(ObsSpans, ScanSpKernelsRecordBackToBackWithPerKernelMetrics) {
  mo::TraceSession ts;
  mgs::simt::Device dev(0, ms::k80_spec());
  const std::vector<int> in(1 << 14);
  std::vector<int> out(in.size());
  auto plan = mc::derive_spl(ms::k80_spec(), 4).plan;
  plan.s13.k = 2;
  for (int i = 0; i < 3; ++i) {
    mc::scan_sp<int>(dev, in, out, 1 << 14, 1, plan,
                     mc::ScanKind::kInclusive);
  }
  std::vector<mo::SpanRecord> kernels;
  for (const auto& s : ts.spans()) {
    if (s.kind == mo::SpanKind::kKernel) kernels.push_back(s);
  }
  ASSERT_EQ(kernels.size(), 9u);
  const char* names[] = {"chunk_reduce", "intermediate_scan", "scan_add"};
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_EQ(kernels[i].name, names[i % 3]);
    EXPECT_EQ(kernels[i].device, 0);
    EXPECT_GT(kernels[i].end_seconds, kernels[i].start_seconds);
    EXPECT_GT(kernels[i].bytes, 0u);
    // One compute engine: each kernel starts where the previous ended.
    if (i > 0) {
      EXPECT_DOUBLE_EQ(kernels[i].start_seconds, kernels[i - 1].end_seconds);
    }
  }
  // Stage 1 runs at the Premise-1 occupancy.
  EXPECT_DOUBLE_EQ(kernels[0].occupancy, 1.0);
  // The per-kernel series cluster_explorer tabulates.
  const auto snap = ts.metrics().snapshot();
  for (const char* name : names) {
    const auto* launches =
        mo::find_metric(snap, "kernel_launches_total", {{"name", name}});
    ASSERT_NE(launches, nullptr) << name;
    EXPECT_DOUBLE_EQ(launches->value, 3.0) << name;
    EXPECT_NE(mo::find_metric(snap, "kernel_seconds", {{"name", name}}),
              nullptr);
    EXPECT_NE(mo::find_metric(snap, "kernel_bytes", {{"name", name}}),
              nullptr);
  }
}

// The autotuner's probe scans run on a throwaway device with tracing
// paused: a traced Scan-SP run on device 1 whose plan misses the cache
// records kernels on device 1 only, none for the probes' device 0.
TEST(ObsSpans, PlanMissProbesStayOutOfTheTrace) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  mo::TraceSession ts;
  auto ex = mc::make_sp_executor(ctx, 1);
  ex->prepare(kN, kG);
  ASSERT_EQ(ctx.plan_cache_misses(), 1u);
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 5);
  std::vector<std::int32_t> out(data.size());
  ex->run(data, out, mc::ScanKind::kInclusive);
  std::size_t kernels = 0;
  for (const auto& s : ts.spans()) {
    if (s.kind != mo::SpanKind::kKernel) continue;
    EXPECT_EQ(s.device, 1) << s.name;
    ++kernels;
  }
  EXPECT_GT(kernels, 0u);
}

TEST(ObsSpans, MultinodeRunsRecordCollectives) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 10);
  const auto o = run_proposal(
      [](mc::ScanContext& c) {
        return mc::make_multinode_executor(c, 1, 8, {mc::PipelineMode::kSync});
      },
      true, "", data, kN, kG);
  bool saw_gather = false, saw_barrier = false;
  for (const auto& s : o.spans) {
    if (s.kind != mo::SpanKind::kCollective) continue;
    EXPECT_EQ(s.category, mo::Category::kMpi) << s.name;
    saw_gather |= s.name == "MPI_Gather";
    saw_barrier |= s.name == "MPI_Barrier";
  }
  EXPECT_TRUE(saw_gather);
  EXPECT_TRUE(saw_barrier);
}

// ---------------------------------------------------------------- metrics

TEST(ObsMetrics, LabelAggregationAcrossSeries) {
  mo::MetricsRegistry reg;
  reg.add("transfer_bytes", {{"kind", "p2p"}}, 100.0);
  reg.add("transfer_bytes", {{"kind", "p2p"}}, 50.0);
  reg.add("transfer_bytes", {{"kind", "host-staged"}}, 10.0);
  // Label order must not matter.
  reg.add("multi", {{"b", "2"}, {"a", "1"}}, 1.0);
  reg.add("multi", {{"a", "1"}, {"b", "2"}}, 2.0);

  const auto snap = reg.snapshot();
  const auto* p2p = mo::find_metric(snap, "transfer_bytes", {{"kind", "p2p"}});
  ASSERT_NE(p2p, nullptr);
  EXPECT_DOUBLE_EQ(p2p->value, 150.0);
  const auto* host =
      mo::find_metric(snap, "transfer_bytes", {{"kind", "host-staged"}});
  ASSERT_NE(host, nullptr);
  EXPECT_DOUBLE_EQ(host->value, 10.0);
  const auto* multi = mo::find_metric(snap, "multi", {{"a", "1"}, {"b", "2"}});
  ASSERT_NE(multi, nullptr);
  EXPECT_DOUBLE_EQ(multi->value, 3.0);
  EXPECT_EQ(mo::find_metric(snap, "transfer_bytes"), nullptr);
}

TEST(ObsMetrics, RunSnapshotsLandInRunResult) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 9);
  const auto o = run_proposal(
      [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }, true,
      "", data, kN, kG);
  const auto& snap = o.result.metrics;
  ASSERT_FALSE(snap.empty());

  const auto* runs =
      mo::find_metric(snap, "runs_total",
                      {{"executor", "Scan-MPS"}, {"dtype", "i32"},
                       {"op", "plus"}});
  ASSERT_NE(runs, nullptr);
  EXPECT_DOUBLE_EQ(runs->value, 1.0);

  const auto* p2p =
      mo::find_metric(snap, "transfer_bytes", {{"kind", "p2p"}});
  ASSERT_NE(p2p, nullptr);
  EXPECT_GT(p2p->value, 0.0);

  const auto* sizes = mo::find_metric(snap, "transfer_size_bytes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->type, mo::MetricType::kHistogram);
  EXPECT_GT(sizes->count, 0u);
  std::uint64_t bucketed = 0;
  for (auto b : sizes->buckets) bucketed += b;
  EXPECT_EQ(bucketed, sizes->count);

  bool saw_kernel_counter = false;
  for (const auto& m : snap) {
    saw_kernel_counter |= m.name == "kernel_launches_total";
  }
  EXPECT_TRUE(saw_kernel_counter);

  // An untraced run carries no metrics at all.
  const auto plain = run_proposal(
      [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }, false,
      "", data, kN, kG);
  EXPECT_TRUE(plain.result.metrics.empty());
}

TEST(ObsMetrics, PlanCacheCountersTrackReuse) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, 4);
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 10);
  std::vector<std::int32_t> out(static_cast<std::size_t>(kN * kG));

  mo::TraceSession ts;
  ex->prepare(kN, kG);
  ex->run(data, out, mc::ScanKind::kInclusive);
  // A second executor with the same shape resolves the same plan-cache
  // key (the first executor memoizes its prepare, so re-preparing it
  // would not touch the cache at all).
  auto ex2 = mc::make_mps_executor(ctx, 4);
  ex2->prepare(kN, kG);
  ex2->run(data, out, mc::ScanKind::kInclusive);

  const auto snap = ts.metrics().snapshot();
  const auto* hits = mo::find_metric(snap, "plan_cache_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_GE(hits->value, 1.0);
  const auto* misses = mo::find_metric(snap, "plan_cache_misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GE(misses->value, 1.0);
}

// ---------------------------------------------------------- critical path

TEST(ObsCriticalPath, AttributionSumsToMakespanForEveryExecutor) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 11);
  for (const auto& p : all_proposals()) {
    const auto o = run_proposal(p.make, true, "", data, kN, kG);
    const auto cp = mo::analyze_last_run(o.spans);
    EXPECT_NEAR(cp.total_seconds, o.result.seconds, 1e-9) << p.name;
    EXPECT_NEAR(cp.by_category.total(), cp.total_seconds, 1e-9) << p.name;
    EXPECT_NEAR(cp.by_category.total(), o.result.seconds, 1e-9) << p.name;
  }
}

TEST(ObsCriticalPath, MpsStageRowsMatchRunBreakdown) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 12);
  // Forced-synchronous pipeline: this test checks the legacy stage
  // anatomy (gather/scatter phases visible in the attribution); the
  // overlapped pipeline's anatomy is covered by test_pipeline.
  const auto o = run_proposal(
      [](mc::ScanContext& c) {
        return mc::make_mps_executor(
            c, 4, false, {mc::PipelineMode::kSync, 0});
      },
      true, "", data, kN, kG);
  const auto cp = mo::analyze_last_run(o.spans);

  // Same phases, in the same order, with the same durations.
  const auto& entries = o.result.breakdown.entries();
  ASSERT_EQ(cp.stages.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(cp.stages[i].name, entries[i].first);
    EXPECT_NEAR(cp.stages[i].seconds(), entries[i].second, 1e-9)
        << entries[i].first;
  }
  // Stage rows tile the run window.
  double sum = 0.0;
  for (const auto& s : cp.stages) sum += s.seconds();
  EXPECT_NEAR(sum, cp.total_seconds, 1e-9);

  // A 4-GPU batch scan moves data and computes: both show up.
  EXPECT_GT(cp.by_category[mo::Category::kCompute], 0.0);
  EXPECT_GT(cp.by_category[mo::Category::kP2P] +
                cp.by_category[mo::Category::kHostStaged],
            0.0);
  // Per-device rows cover the four GPUs; busy + idle fills the window.
  ASSERT_GE(cp.devices.size(), 4u);
  for (const auto& d : cp.devices) {
    EXPECT_NEAR(d.busy.total() + d.idle_seconds, cp.total_seconds, 1e-9);
  }
  EXPECT_FALSE(cp.links.empty());
}

// ----------------------------------------------------------- fault spans

TEST(ObsFaults, TransientRetriesRecordFaultSpans) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 13);
  const auto o = run_proposal(
      [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }, true,
      "transient:op=0,count=2", data, kN, kG);
  ASSERT_GT(o.result.faults.counters.retries, 0u);

  int fault_spans = 0;
  for (const auto& s : o.spans) {
    if (s.kind != mo::SpanKind::kFault) continue;
    ++fault_spans;
    // Every fault span hangs off a transfer (or stage) inside the run,
    // is named after the fault kind and carries annotations.
    ASSERT_NE(s.parent, 0u);
    EXPECT_EQ(s.name, "transient");
    EXPECT_FALSE(s.notes.empty()) << s.name;
  }
  EXPECT_GT(fault_spans, 0);

  const auto* retries = mo::find_metric(o.result.metrics, "fault_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->value, 0.0);
  const auto* events = mo::find_metric(o.result.metrics, "fault_events_total",
                                       {{"kind", "transient"}});
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->value, 0.0);

  // The attribution invariant holds under fault recovery too.
  const auto cp = mo::analyze_last_run(o.spans);
  EXPECT_NEAR(cp.by_category.total(), o.result.seconds, 1e-9);
}

// ----------------------------------------------------------- zero overhead

TEST(ObsOverhead, NoSessionMeansNoRecordsAndBitIdenticalResults) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 14);
  for (const auto& p : all_proposals()) {
    const auto plain = run_proposal(p.make, false, "", data, kN, kG);
    const auto traced = run_proposal(p.make, true, "", data, kN, kG);
    // Tracing must not perturb the simulation: same simulated seconds
    // bit-for-bit, same output.
    EXPECT_DOUBLE_EQ(plain.result.seconds, traced.result.seconds) << p.name;
    EXPECT_EQ(plain.out, traced.out) << p.name;
    EXPECT_TRUE(plain.spans.empty()) << p.name;
    EXPECT_TRUE(plain.result.metrics.empty()) << p.name;
  }
  EXPECT_EQ(mo::TraceSession::current(), nullptr);
}

// ------------------------------------------------------------- exporters

TEST(ObsExport, RunReportRoundTripsThroughTheLoader) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 15);
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, 4);
  ex->prepare(kN, kG);
  std::vector<std::int32_t> out(static_cast<std::size_t>(kN * kG));

  mo::TraceSession ts;
  const auto r = ex->run(data, out, mc::ScanKind::kInclusive);
  const auto info = mc::make_run_info("Scan-MPS", kN, 4, r);
  const auto spans = ts.spans();
  const auto cp = mo::analyze_last_run(spans);

  std::ostringstream os;
  mo::write_run_report(os, info, ts.metrics().snapshot(), spans, cp);
  const auto rep = mo::parse_run_report(mo::parse_json(os.str()));

  EXPECT_EQ(rep.run.executor, "Scan-MPS");
  EXPECT_EQ(rep.run.n, static_cast<std::uint64_t>(kN));
  EXPECT_DOUBLE_EQ(rep.run.seconds, r.seconds);
  EXPECT_EQ(rep.run.breakdown, r.breakdown.entries());
  ASSERT_EQ(rep.spans.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(rep.spans[i].id, spans[i].id);
    EXPECT_EQ(rep.spans[i].parent, spans[i].parent);
    EXPECT_EQ(rep.spans[i].name, spans[i].name);
    EXPECT_EQ(rep.spans[i].kind, spans[i].kind);
    EXPECT_EQ(rep.spans[i].category, spans[i].category);
    EXPECT_DOUBLE_EQ(rep.spans[i].start_seconds, spans[i].start_seconds);
    EXPECT_DOUBLE_EQ(rep.spans[i].end_seconds, spans[i].end_seconds);
    EXPECT_EQ(rep.spans[i].bytes, spans[i].bytes);
    EXPECT_EQ(rep.spans[i].notes, spans[i].notes);
  }
  EXPECT_EQ(rep.metrics.size(), ts.metrics().snapshot().size());
  // The loader re-derives the critical path; it must agree exactly.
  EXPECT_DOUBLE_EQ(rep.critical_path.total_seconds, cp.total_seconds);
  for (int c = 0; c < mo::kNumCategories; ++c) {
    EXPECT_DOUBLE_EQ(
        rep.critical_path.by_category.seconds[static_cast<std::size_t>(c)],
        cp.by_category.seconds[static_cast<std::size_t>(c)]);
  }
}

TEST(ObsExport, ChromeTraceAndPrometheusAreWellFormed) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 16);
  const auto o = run_proposal(
      [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }, true,
      "", data, kN, kG);

  std::ostringstream trace;
  mo::write_chrome_trace(trace, o.spans);
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // It parses with our own JSON parser too.
  EXPECT_NO_THROW(mo::parse_json(json));

  std::ostringstream prom;
  mo::write_prometheus(prom, o.result.metrics);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE mgs_transfers_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mgs_transfer_bytes{kind=\"p2p\"}"), std::string::npos);
  EXPECT_NE(text.find("_bucket{"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(ObsExport, LoaderRejectsMalformedInput) {
  EXPECT_THROW(mo::parse_json("{\"a\": }"), mgs::util::Error);
  EXPECT_THROW(mo::parse_json("{} trailing"), mgs::util::Error);
  EXPECT_THROW(mo::parse_run_report(mo::parse_json("{\"schema\":\"nope\"}")),
               mgs::util::Error);
}
