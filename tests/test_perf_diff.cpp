// Tests for the cross-run observability layer (mgs::obs history + diff):
// the differential attribution's exact-telescoping invariant on real
// traced runs (healthy vs an injected straggler must attribute the delta
// to the right stage/device rows), the NDJSON run store's bit-exact
// append/reload round trip and its reconstituted-report diff, and the
// structural-change flagging that separates "the schedule changed" from
// "the same schedule got slower".

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <vector>

#include "mgs/core/executor.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/run_report.hpp"
#include "mgs/obs/diff.hpp"
#include "mgs/obs/history.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/util/random.hpp"

namespace {

using namespace mgs;

/// One traced Scan-MPS run (W=4, synchronous stages so both sides keep
/// the same stage structure) as a loaded-report equivalent: header from
/// the RunResult, critical path from the recorded spans -- exactly what
/// obs::load_run_report would hand back for this run's report file.
obs::RunReport traced_run(const std::string& faults) {
  const std::int64_t n = 1 << 16;
  const std::int64_t g = 2;
  auto cluster = topo::tsubame_kfc_cluster(1);
  std::unique_ptr<sim::FaultInjector> fi;
  if (!faults.empty()) {
    fi = std::make_unique<sim::FaultInjector>(sim::parse_fault_plan(faults));
    cluster.set_fault_injector(fi.get());
  }
  obs::TraceSession ts;
  core::ScanContext ctx(cluster);
  core::ExecutorParams p;
  p.w = 4;
  p.pipeline = core::PipelineMode::kSync;
  auto ex = core::make_executor("Scan-MPS", ctx, p);
  ex->prepare(n, g);
  const auto data = util::random_i32(static_cast<std::size_t>(n * g), 3);
  std::vector<std::int32_t> out(data.size());
  const auto r = ex->run(std::span<const std::int32_t>(data),
                         std::span<std::int32_t>(out),
                         core::ScanKind::kInclusive);

  obs::RunReport rep;
  rep.run = core::make_run_info("Scan-MPS", n, 4, r);
  rep.spans = ts.spans();
  rep.metrics = ts.metrics().snapshot();
  rep.critical_path = obs::analyze_last_run(rep.spans);
  return rep;
}

double sum_row_deltas(const obs::ReportDiff& d) {
  double s = 0.0;
  for (const auto& row : d.rows) s += row.delta();
  return s;
}

TEST(PerfDiff, SelfDiffIsZeroEverywhere) {
  const auto rep = traced_run("");
  const auto d = obs::diff_reports(rep, rep);
  EXPECT_EQ(d.delta(), 0.0);
  EXPECT_EQ(sum_row_deltas(d), 0.0);
  EXPECT_FALSE(d.structural_change());
  for (const auto& row : d.rows) EXPECT_EQ(row.delta(), 0.0);
}

TEST(PerfDiff, StragglerDeltaTelescopesAndLandsOnTheRightDevice) {
  const auto base = traced_run("");
  const auto cur = traced_run("straggler:dev=1,factor=4");

  const auto d = obs::diff_reports(base, cur);
  ASSERT_GT(d.delta(), 0.0);  // a 4x straggler must cost simulated time
  EXPECT_GT(d.delta_pct(), 5.0);  // and more than the CI gate tolerance

  // Exact decomposition: the attribution rows telescope to the full
  // makespan delta (the acceptance bound: 1e-9 of the makespan).
  const double tol = 1e-9 * std::max(d.base_total, d.cur_total);
  EXPECT_NEAR(sum_row_deltas(d), d.delta(), tol);

  // The per-category deltas telescope too, by the analyzer invariant.
  double cat_sum = 0.0;
  for (double s : d.by_category.seconds) cat_sum += s;
  EXPECT_NEAR(cat_sum, d.delta(), tol);

  // Attribution: a straggler slows both device 1's kernels and every
  // transfer touching device 1, so the injected slowdown must land on
  // stage rows critical on device 1 plus link rows with an endpoint on
  // device 1 -- and together they carry at least the full delta (the
  // healthy share of those rows is positive, so their deltas can only
  // exceed the injection, never undershoot it).
  const auto ranked = obs::ranked_rows(d);
  ASSERT_FALSE(ranked.empty());
  EXPECT_GT(ranked.front()->delta(), 0.0);
  bool dev1_in_top3 = false;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, ranked.size()); ++i) {
    if (ranked[i]->device == 1) dev1_in_top3 = true;
  }
  EXPECT_TRUE(dev1_in_top3);
  double on_dev1 = 0.0;
  for (const auto& row : d.rows) {
    if (row.device == 1) on_dev1 += row.delta();
  }
  for (const auto& link : d.links) {
    if (link.src == 1 || link.dst == 1) on_dev1 += link.delta();
  }
  EXPECT_GE(on_dev1, d.delta() * 0.99);

  // Same stage structure on both sides: time drift, not plan drift.
  EXPECT_FALSE(d.structural_change());

  // The rendered table leads with the regression.
  const auto text = obs::format_diff(d, 3);
  EXPECT_NE(text.find("makespan"), std::string::npos);
  EXPECT_NE(text.find("+"), std::string::npos);
}

TEST(PerfDiff, ResumedStagesFlagStructuralChange) {
  const auto base = traced_run("");
  // A device dropping mid-run forces stage-granular recovery: the run
  // completes but records resumed stages -- a schedule change the diff
  // must flag as structural, not bury in time drift.
  const auto cur = traced_run("device-down:dev=1,at=1e-09");
  ASSERT_FALSE(cur.run.fault_counters.empty());

  const auto d = obs::diff_reports(base, cur);
  EXPECT_TRUE(d.structural_change());
  bool mentions_faults = false;
  for (const auto& s : d.structural) {
    if (s.find("resumed") != std::string::npos ||
        s.find("fault") != std::string::npos ||
        s.find("stage") != std::string::npos) {
      mentions_faults = true;
    }
  }
  EXPECT_TRUE(mentions_faults);

  // Structural or not, the telescoping invariant still holds.
  const double tol = 1e-9 * std::max(d.base_total, d.cur_total);
  EXPECT_NEAR(sum_row_deltas(d), d.delta(), tol);
}

TEST(PerfDiff, DiffJsonIsWellFormedAndRanked) {
  const auto base = traced_run("");
  const auto cur = traced_run("straggler:dev=1,factor=4");
  const auto d = obs::diff_reports(base, cur);
  std::ostringstream os;
  obs::write_diff_json(os, d);
  const auto doc = obs::parse_json(os.str());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->str, "mgs-perf-diff-v1");
  ASSERT_NE(doc.find("rows"), nullptr);
  EXPECT_FALSE(doc.find("rows")->array.empty());
}

TEST(PerfHistory, AppendReloadRoundTripsBitExactly) {
  const std::string path = "perf_diff_history_test.ndjson";
  std::filesystem::remove(path);
  obs::RunHistory hist(path);

  obs::HistoryEntry a;
  a.key.executor = "Scan-MPS";
  a.key.dtype = "f64";
  a.key.op = "max";
  a.key.pipeline = "overlap";
  a.key.n = 1 << 20;
  a.key.g = 4;
  a.key.devices = 4;
  // Values with no short decimal spelling: the golden gate compares at
  // 1e-12, so the store must round-trip every bit.
  a.seconds = 1.0 / 3.0 * 1e-3;
  a.payload_bytes = 1234567;
  a.breakdown = {{"Stage1", 0.1 / 7.0}, {"Stage2", 2e-5 / 3.0},
                 {"Stage3", 1.5e-4}};

  obs::HistoryEntry c;  // a different key in the same store
  c.key.executor = "Scan-SP";
  c.key.n = 4096;
  c.key.g = 1;
  c.key.devices = 1;
  c.seconds = 9.0e-5;

  hist.append(a);
  hist.append(c);

  const auto loaded = hist.load();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].key, a.key);
  EXPECT_EQ(loaded[0].seconds, a.seconds);
  EXPECT_EQ(loaded[0].payload_bytes, a.payload_bytes);
  EXPECT_EQ(loaded[0].breakdown, a.breakdown);
  EXPECT_EQ(loaded[1].key, c.key);
  EXPECT_EQ(loaded[1].seconds, c.seconds);
  EXPECT_TRUE(loaded[1].breakdown.empty());
  std::filesystem::remove(path);
}

TEST(PerfHistory, StoredEntryDiffTelescopesExactly) {
  // mgs_perf diff explains a moved golden key by diffing two
  // reconstituted reports: Sigma row deltas == makespan delta, and the
  // stage that moved is the row that carries the delta.
  obs::HistoryEntry e;
  e.key.executor = "Scan-MPS";
  e.seconds = 1e-3;
  e.breakdown = {{"Stage1", 2.5e-4}, {"Stage2", 5e-4}, {"Stage3", 2.5e-4}};
  obs::HistoryEntry moved = e;
  moved.seconds = 1.4e-3;
  moved.breakdown[1].second = 9e-4;
  const auto base = obs::report_from_entry(e);
  const auto cur = obs::report_from_entry(moved);
  const auto d = obs::diff_reports(base, cur);
  EXPECT_NEAR(sum_row_deltas(d), d.delta(),
              1e-9 * cur.critical_path.total_seconds);
  EXPECT_DOUBLE_EQ(d.delta(), 4e-4);
  for (const auto& row : d.rows) {
    EXPECT_NEAR(row.delta(), row.stage == "Stage2" ? 4e-4 : 0.0, 1e-15)
        << row.stage;
  }
}

TEST(PerfTrace, CounterTracksAppearInTheChromeExport) {
  const auto rep = traced_run("");
  std::ostringstream os;
  obs::write_chrome_trace(os, rep.spans, rep.metrics);
  const auto text = os.str();
  // Perfetto counter events for the reconstructed transfer-bytes series.
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("transfer_bytes"), std::string::npos);
}

}  // namespace
