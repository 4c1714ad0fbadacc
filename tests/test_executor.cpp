// Tests for the unified ScanContext / ScanExecutor layer: plan-cache
// hit/miss behaviour, workspace reuse (allocation counts flat across
// repeated runs, modeled times identical), bit-exact output equivalence
// between every executor and the legacy free function it wraps, and the
// registry / planner bridge.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/easy.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/scan_mppc.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/segmented_context.hpp"
#include "mgs/core/tuning.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/util/random.hpp"

namespace mc = mgs::core;
namespace mt = mgs::topo;
using mgs::baselines::reference_batch_scan;

namespace {

constexpr std::int64_t kN = 1 << 12;
constexpr std::int64_t kG = 4;

std::vector<int> node_major_ids(const mt::Cluster& cluster, int m, int w) {
  std::vector<int> ids;
  const auto& cfg = cluster.config();
  for (int node = 0; node < m; ++node) {
    for (int i = 0; i < w; ++i) {
      ids.push_back(cluster.global_id(node, i / cfg.gpus_per_network,
                                      i % cfg.gpus_per_network));
    }
  }
  return ids;
}

}  // namespace

// ---------------------------------------------------------------- plan cache

TEST(ScanContext, PlanCacheHitsAndMisses) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  const auto& p1 = ctx.plan_for(kN, kG);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
  EXPECT_EQ(ctx.plan_cache_misses(), 1u);
  EXPECT_EQ(ctx.plan_cache_hits(), 0u);
  const std::size_t tuner_cache = ctx.tuner().cache_size();
  EXPECT_EQ(tuner_cache, 1u);

  // Identical key: cache hit, and the autotuner is not consulted again.
  const auto& p2 = ctx.plan_for(kN, kG);
  EXPECT_EQ(&p1, &p2);
  EXPECT_EQ(ctx.plan_cache_size(), 1u);
  EXPECT_EQ(ctx.plan_cache_hits(), 1u);
  EXPECT_EQ(ctx.tuner().cache_size(), tuner_cache);

  // Different shape: a new miss.
  ctx.plan_for(kN * 2, kG);
  EXPECT_EQ(ctx.plan_cache_size(), 2u);
  EXPECT_EQ(ctx.plan_cache_misses(), 2u);

  // Multi-GPU keys bypass the autotuner (premise-derived K).
  ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus,
               /*gpus_per_problem=*/4);
  EXPECT_EQ(ctx.plan_cache_size(), 3u);
  EXPECT_EQ(ctx.tuner().cache_size(), 2u);
}

TEST(ScanContext, SecondPrepareWithSameKeyIsAHit) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  auto ex1 = mc::make_sp_executor(ctx);
  ex1->prepare(kN, kG);
  const auto misses = ctx.plan_cache_misses();
  const auto tuner_cache = ctx.tuner().cache_size();

  // Same executor, same shape: idempotent, no new lookup at all.
  ex1->prepare(kN, kG);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);

  // A fresh executor preparing the same shape hits the shared cache.
  auto ex2 = mc::make_sp_executor(ctx);
  ex2->prepare(kN, kG);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);
  EXPECT_GE(ctx.plan_cache_hits(), 1u);
  EXPECT_EQ(ctx.tuner().cache_size(), tuner_cache);
}

// ------------------------------------------------------------ workspace pool

TEST(WorkspacePool, ReusesBuffersAcrossRuns) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_mps_executor(ctx, /*w=*/4);
  ex->prepare(kN, kG);

  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 7);
  std::vector<int> out1(data.size()), out2(data.size()), out3(data.size());

  const auto r1 = ex->run(data, out1, mc::ScanKind::kInclusive);
  const auto allocs_after_first = ctx.workspace().device_allocations();
  const auto reuses_after_first = ctx.workspace().reuses();

  const auto r2 = ex->run(data, out2, mc::ScanKind::kInclusive);
  const auto r3 = ex->run(data, out3, mc::ScanKind::kInclusive);

  // Steady state: zero new device allocations, only reuses.
  EXPECT_EQ(ctx.workspace().device_allocations(), allocs_after_first);
  EXPECT_GT(ctx.workspace().reuses(), reuses_after_first);

  // Determinism: identical modeled time and identical output, run to run.
  EXPECT_EQ(r1.seconds, r2.seconds);
  EXPECT_EQ(r2.seconds, r3.seconds);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out2, out3);
  EXPECT_EQ(out1, reference_batch_scan<int>(data, kN, kG,
                                            mc::ScanKind::kInclusive));
}

TEST(WorkspacePool, BestFitAndCounters) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::WorkspacePool pool;
  auto& dev = cluster.device(0);
  {
    auto a = pool.acquire<int>(dev, 100);
    auto b = pool.acquire<int>(dev, 1000);
    EXPECT_EQ(pool.device_allocations(), 2u);
  }
  EXPECT_EQ(pool.pooled_buffers(), 2u);
  {
    // Best fit: a request for 50 gets the 100-element buffer back.
    auto c = pool.acquire<int>(dev, 50);
    EXPECT_EQ(c.size(), 100);
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(pool.device_allocations(), 2u);
  }
  // Other devices and types never share buffers.
  {
    auto d = pool.acquire<int>(cluster.device(1), 50);
    EXPECT_EQ(pool.device_allocations(), 3u);
    auto e = pool.acquire<double>(dev, 50);
    EXPECT_EQ(pool.device_allocations(), 4u);
  }
  pool.clear();
  EXPECT_EQ(pool.pooled_buffers(), 0u);
}

// ------------------------------------------- executor vs legacy equivalence

TEST(ExecutorEquivalence, ScanSp) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 11);

  auto ex = mc::make_executor("Scan-SP", ctx);
  ex->prepare(kN, kG);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(1);
  auto& dev = legacy_cluster.device(0);
  auto in = dev.alloc<int>(kN * kG);
  auto out = dev.alloc<int>(kN * kG);
  std::copy(data.begin(), data.end(), in.host_span().begin());
  const auto rl = mc::scan_sp<int>(dev, in, out, kN, kG,
                                   ctx.plan_for(kN, kG),
                                   mc::ScanKind::kInclusive);
  const std::vector<int> want(out.host_span().begin(), out.host_span().end());

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

TEST(ExecutorEquivalence, ScanMpsAndDirect) {
  for (const bool direct : {false, true}) {
    auto cluster = mt::tsubame_kfc_cluster(1);
    mc::ScanContext ctx(cluster);
    const int w = 4;
    const auto data = mgs::util::random_i32(
        static_cast<std::size_t>(kN * kG), 13);

    auto ex = mc::make_executor(direct ? "Scan-MPS-direct" : "Scan-MPS", ctx,
                                {.w = w});
    ex->prepare(kN, kG);
    std::vector<int> got(data.size());
    const auto r = ex->run(data, got, mc::ScanKind::kExclusive);

    auto legacy_cluster = mt::tsubame_kfc_cluster(1);
    const auto gpus = node_major_ids(legacy_cluster, 1, w);
    const auto& plan =
        ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus, w);
    std::vector<int> want(data.size());
    const auto rl = mc::scan_mps<int>(
        legacy_cluster, gpus, data, want, kN, kG, plan,
        mc::ScanKind::kExclusive, {},
        direct ? mc::MpsGather::kPeerWrites : mc::MpsGather::kCopies);

    EXPECT_EQ(got, want) << (direct ? "direct" : "staged");
    EXPECT_EQ(r.seconds, rl.seconds);
  }
}

TEST(ExecutorEquivalence, ScanMppc) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const std::int64_t g = 5;  // uneven split across the two networks
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * g), 17);

  auto ex = mc::make_executor("Scan-MP-PC", ctx, {.y = 2, .v = 4});
  ex->prepare(kN, g);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(1);
  const auto part = mc::make_mppc_partition(legacy_cluster, 2, 4, g);
  const auto& plan =
      ctx.plan_for(kN, g, mc::DType::kI32, mc::OpTag::kPlus, 4);
  std::vector<int> want(data.size());
  const auto rl = mc::scan_mppc<int>(legacy_cluster, part, data, want, kN,
                                     plan, mc::ScanKind::kInclusive);

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

TEST(ExecutorEquivalence, ScanMpsMultinode) {
  auto cluster = mt::tsubame_kfc_cluster(2);
  mc::ScanContext ctx(cluster);
  const int m = 2, w = 8;
  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 19);

  auto ex = mc::make_executor("Scan-MPS-multinode", ctx, {.w = w, .m = m});
  ex->prepare(kN, kG);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);

  auto legacy_cluster = mt::tsubame_kfc_cluster(2);
  const auto ids = node_major_ids(legacy_cluster, m, w);
  const auto& plan =
      ctx.plan_for(kN, kG, mc::DType::kI32, mc::OpTag::kPlus, m * w);
  std::vector<int> want(data.size());
  const auto rl = mc::scan_mps<int>(legacy_cluster, ids, data, want, kN, kG,
                                    plan, mc::ScanKind::kInclusive, {},
                                    mc::MpsGather::kMpi);

  EXPECT_EQ(got, want);
  EXPECT_EQ(r.seconds, rl.seconds);
}

// --------------------------------------------------------- registry / planner

TEST(ExecutorRegistry, ListsTheFiveProposals) {
  const auto& all = mc::all_executors();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "Scan-SP");
  EXPECT_EQ(all[1].name, "Scan-MPS");
  EXPECT_EQ(all[2].name, "Scan-MPS-direct");
  EXPECT_EQ(all[3].name, "Scan-MP-PC");
  EXPECT_EQ(all[4].name, "Scan-MPS-multinode");

  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  for (const auto& info : all) {
    if (info.name == "Scan-MPS-multinode") continue;  // needs its shape
    auto ex = info.make(ctx, {});
    ASSERT_NE(ex, nullptr);
    EXPECT_EQ(ex->name(), info.name);
    EXPECT_FALSE(ex->describe().empty());
  }
}

// describe() names the schedule that runs. The planner asks for the
// overlap pipeline on every multi-GPU plan, but peer writes (and a single
// GPU) always run the joined, synchronous schedule.
TEST(ExecutorRegistry, DescribeNamesTheScheduleThatRuns) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  const auto pipeline_of = [](const mc::ScanExecutor& ex) {
    const std::string d = ex.describe();
    const auto at = d.find("pipeline: ");
    return at == std::string::npos ? d : d.substr(at);
  };
  auto direct = mc::make_mps_executor(ctx, 4, true);
  direct->prepare(1 << 12, 4);
  EXPECT_EQ(pipeline_of(*direct), "pipeline: synchronous");
  auto single = mc::make_mps_executor(ctx, 1);
  single->prepare(1 << 12, 4);
  EXPECT_EQ(pipeline_of(*single), "pipeline: synchronous");
  auto mps = mc::make_mps_executor(ctx, 4);
  mps->prepare(1 << 12, 4);
  EXPECT_EQ(pipeline_of(*mps).rfind("pipeline: overlapped, waves=", 0), 0u);
}

// Every registry name builds every (dtype, op) cell, plain and segmented,
// and reports the cell it was built for. Construction alone proves each
// dispatch table routes every cell, so nothing is prepared or run.
TEST(ExecutorRegistry, EveryNameBuildsEveryCell) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  int built = 0;
  for (const auto& info : mc::all_executors()) {
    for (int d = 0; d < mc::kNumDTypes; ++d) {
      for (int o = 0; o < mc::kNumOpTags; ++o) {
        mc::ExecutorParams p;
        p.dtype = static_cast<mc::DType>(d);
        p.op = static_cast<mc::OpTag>(o);
        const auto plain = mc::make_executor(info.name, ctx, p);
        const auto seg = mc::make_segmented_executor(info.name, ctx, p);
        for (const mc::ScanExecutor* ex : {plain.get(), seg.get()}) {
          const std::string cell = info.name + " " +
                                   mc::to_string(p.dtype) + "/" +
                                   mc::to_string(p.op);
          EXPECT_EQ(ex->name(), info.name) << cell;
          EXPECT_EQ(ex->dtype(), p.dtype) << cell;
          EXPECT_EQ(ex->op(), p.op) << cell;
          EXPECT_EQ(ex->segmented(), ex == seg.get()) << cell;
          ++built;
        }
      }
    }
  }
  EXPECT_EQ(built, 2 * 5 * mc::kNumDTypes * mc::kNumOpTags);
}

TEST(ExecutorRegistry, UnknownNameThrows) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  EXPECT_THROW(mc::make_executor("Scan-XXL", ctx), mgs::util::Error);
  EXPECT_THROW(mc::make_segmented_executor("Scan-XXL", ctx),
               mgs::util::Error);
}

TEST(ExecutorRegistry, PlannerChoiceMapsToExecutor) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);

  mc::PlannerChoice choice;
  choice.proposal = mc::Proposal::kMps;
  choice.w = 4;
  auto ex = mc::make_executor(ctx, choice);
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->name(), "Scan-MPS");
}

TEST(ExecutorRegistry, ContextRunsThePlannerEndToEnd) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = ctx.executor_for({kN, kG});
  ASSERT_NE(ex, nullptr);
  ex->prepare(kN, kG);

  const auto data = mgs::util::random_i32(
      static_cast<std::size_t>(kN * kG), 23);
  std::vector<int> got(data.size());
  const auto r = ex->run(data, got, mc::ScanKind::kInclusive);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_EQ(got, reference_batch_scan<int>(data, kN, kG,
                                           mc::ScanKind::kInclusive));
}

// ----------------------------------------------------------------- contract

TEST(ScanExecutor, RunBeforePrepareThrows) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto ex = mc::make_sp_executor(ctx);
  std::vector<int> data(16, 1), out(16);
  EXPECT_THROW(ex->run(data, out, mc::ScanKind::kInclusive),
               mgs::util::Error);
}

TEST(ScanExecutor, BadShapesThrow) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  auto mps = mc::make_mps_executor(ctx, 8);
  EXPECT_THROW(mps->prepare(12, 1), mgs::util::Error);  // 12 % 8 != 0
  auto sp = mc::make_sp_executor(ctx);
  EXPECT_THROW(sp->prepare(0, 1), mgs::util::Error);
}

TEST(RunResult, ZeroTimeThroughputThrows) {
  mc::RunResult r;
  r.payload_bytes = 1;
  EXPECT_THROW(r.throughput_bps(), mgs::util::Error);
  r.seconds = 2.0;
  EXPECT_EQ(r.throughput_bps(), 0.5);
}

// Easy API through a shared context amortizes the plan search.
TEST(EasyScan, ContextOverloadCachesPlans) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  mc::ScanContext ctx(cluster);
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);

  const auto r1 = mc::scan<int>(ctx, data);
  const auto misses = ctx.plan_cache_misses();
  const auto r2 = mc::scan<int>(ctx, data);
  EXPECT_EQ(ctx.plan_cache_misses(), misses);
  EXPECT_GE(ctx.plan_cache_hits(), 1u);
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.run.seconds, r2.run.seconds);
}

// ------------------------------------------------------ placement pinning

namespace {

using Make =
    std::function<std::unique_ptr<mc::ScanExecutor>(mc::ScanContext&)>;

/// One fresh run under `spec` ("" = no injector), rendered as describe()
/// plus the FaultReport fields placement and recovery decide.
std::string placement_record(const Make& make, const std::string& spec) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<mgs::sim::FaultInjector> fi;
  if (!spec.empty()) {
    fi = std::make_unique<mgs::sim::FaultInjector>(
        mgs::sim::parse_fault_plan(spec));
    cluster.set_fault_injector(fi.get());
  }
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(kN, kG);
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 31);
  std::vector<int> out(data.size());
  const auto f = ex->run(data, out, mc::ScanKind::kInclusive).faults;
  std::ostringstream os;
  os << ex->describe() << "\nmode: " << f.degraded_mode << "\nexcluded:";
  for (int d : f.excluded_devices) os << ' ' << d;
  for (const auto& step : f.replanned) os << "\nreplanned: " << step;
  os << "\nsummary: " << f.summary();
  return os.str();
}

}  // namespace

// describe() and the placement-decided FaultReport fields of every
// proposal, byte for byte, healthy, with GPU 1 down from the start, and
// collapsed to Scan-SP -- plus the replanned line of a mid-run resume and
// a mid-run restart. A refactor of placement or recovery must not move a
// character of them.
TEST(ExecutorPlacement, DescribeAndFaultReportArePinned) {
  const std::vector<std::pair<const char*, Make>> proposals = {
      {"Scan-SP", [](mc::ScanContext& c) { return mc::make_sp_executor(c, 1); }},
      {"Scan-MPS", [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }},
      {"Scan-MPS-direct",
       [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4, true); }},
      {"Scan-MP-PC",
       [](mc::ScanContext& c) { return mc::make_mppc_executor(c, 2, 4); }},
      {"Scan-MPS-multinode",
       [](mc::ScanContext& c) { return mc::make_multinode_executor(c, 1, 8); }},
  };
  const std::vector<std::pair<const char*, std::string>> placements = {
      {"healthy", ""},
      {"gpu1-down", "device-down:dev=1"},
      {"collapsed",
       "device-down:dev=1;device-down:dev=2;device-down:dev=3;"
       "device-down:dev=4;device-down:dev=5;device-down:dev=6;"
       "device-down:dev=7"},
  };
  std::vector<std::pair<std::string, std::string>> got;
  for (const auto& [pname, make] : proposals) {
    for (const auto& [where, spec] : placements) {
      got.emplace_back(std::string(pname) + " " + where,
                       placement_record(make, spec));
    }
  }
  // GPU 1 dies mid-run: Scan-MPS resumes, Scan-MPS-direct restarts.
  for (std::size_t p : {1u, 2u}) {
    got.emplace_back(std::string(proposals[p].first) + " mid-run",
                     placement_record(proposals[p].second,
                                      "device-down:dev=1,at=1e-9"));
  }
  const std::vector<std::string> expect = {
      "Scan-SP on device 1 [i32/plus]; n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous\n"
      "mode: \n"
      "excluded:\n"
      "summary: healthy",
      "Scan-SP on device 0 [i32/plus]; n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]\n"
      "mode: Scan-SP on device 0\n"
      "excluded: 1\n"
      "replanned: Scan-SP: device 1 -> 0\n"
      "summary: degraded [Scan-SP on device 0]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-SP on device 0 [i32/plus]; n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]\n"
      "mode: Scan-SP on device 0\n"
      "excluded: 1\n"
      "replanned: Scan-SP: device 1 -> 0\n"
      "summary: degraded [Scan-SP on device 0]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS over 4 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1\n"
      "mode: \n"
      "excluded:\n"
      "summary: healthy",
      "Scan-MPS over 2 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MPS W=2]\n"
      "mode: Scan-MPS W=2\n"
      "excluded: 1\n"
      "replanned: Scan-MPS: W=4 -> 2\n"
      "summary: degraded [Scan-MPS W=2]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS over 1 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]\n"
      "mode: Scan-SP on device 0\n"
      "excluded: 1 2 3\n"
      "replanned: Scan-MPS: W=4 -> 1\n"
      "summary: degraded [Scan-SP on device 0]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS-direct over 4 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous\n"
      "mode: \n"
      "excluded:\n"
      "summary: healthy",
      "Scan-MPS-direct over 2 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-MPS-direct W=2]\n"
      "mode: Scan-MPS-direct W=2\n"
      "excluded: 1\n"
      "replanned: Scan-MPS-direct: W=4 -> 2\n"
      "summary: degraded [Scan-MPS-direct W=2]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS-direct over 1 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]\n"
      "mode: Scan-SP on device 0\n"
      "excluded: 1 2 3\n"
      "replanned: Scan-MPS-direct: W=4 -> 1\n"
      "summary: degraded [Scan-SP on device 0]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MP-PC with Y=2 networks/node, V=4 GPUs/network, M=1 nodes [i32/plus] (2 groups); n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1\n"
      "mode: \n"
      "excluded:\n"
      "summary: healthy",
      "Scan-MP-PC with Y=2 networks/node, V=2 GPUs/network, M=1 nodes [i32/plus] (2 groups); n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MP-PC 2 groups x V=2]\n"
      "mode: Scan-MP-PC 2 groups x V=2\n"
      "excluded: 1\n"
      "replanned: Scan-MP-PC: V=4 -> 2, groups -> 2\n"
      "summary: degraded [Scan-MP-PC 2 groups x V=2]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MP-PC with Y=2 networks/node, V=1 GPUs/network, M=1 nodes [i32/plus] (0 groups); n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]\n"
      "mode: Scan-SP on device 0\n"
      "excluded: 1 2 3 4 5 6 7\n"
      "replanned: Scan-MP-PC: V=4 -> 1, groups -> 1\n"
      "summary: degraded [Scan-SP on device 0]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS-multinode over 1 nodes x 8 GPUs (one MPI rank per GPU) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1\n"
      "mode: \n"
      "excluded:\n"
      "summary: healthy",
      "Scan-MPS-multinode over 1 nodes x 8 GPUs (one MPI rank per GPU) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1 [degraded: Scan-MPS-multinode on 4 ranks]\n"
      "mode: Scan-MPS-multinode on 4 ranks\n"
      "excluded: 1\n"
      "replanned: Scan-MPS-multinode: ranks 8 -> 4 (3 surviving ranks idled so ranks divide N)\n"
      "summary: degraded [Scan-MPS-multinode on 4 ranks]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS-multinode over 1 nodes x 8 GPUs (one MPI rank per GPU) [i32/plus]; n=4096 g=4; stage1/3: (s=3, p=4, l=8, K=1) [P=16, Lx=256, chunk=4096, regs=112]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-SP on device 0]\n"
      "mode: Scan-SP on device 0\n"
      "excluded: 1 2 3 4 5 6 7\n"
      "replanned: Scan-MPS-multinode: ranks 8 -> 1\n"
      "summary: degraded [Scan-SP on device 0]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
      "Scan-MPS over 4 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: overlapped, waves=1\n"
      "mode: Scan-MPS: lost device 1 mid-run, resumed from AuxGather\n"
      "excluded: 1\n"
      "replanned: Scan-MPS: lost device 1 mid-run, resumed from AuxGather\n"
      "summary: degraded [Scan-MPS: lost device 1 mid-run, resumed from AuxGather]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0 resumed=AuxGather",
      "Scan-MPS-direct over 2 GPUs of node 0 (master 0) [i32/plus]; n=4096 g=4; stage1/3: (s=2, p=3, l=7, K=1) [P=8, Lx=128, chunk=1024, regs=64]; stage2: (lx=32, ly=4, p=8); pipeline: synchronous [degraded: Scan-MPS-direct W=2]\n"
      "mode: Scan-MPS-direct W=2\n"
      "excluded: 1\n"
      "replanned: Scan-MPS-direct: W=4 -> 2\n"
      "replanned: Scan-MPS-direct: lost device 1 mid-run (restarted on survivors)\n"
      "summary: degraded [Scan-MPS-direct W=2]: retries=0 timeouts=0 corruptions=0 rerouted_bytes=0 invalidated_plans=0",
  };
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, expect[i]) << got[i].first;
  }
}

// ------------------------------------------------ caller's spans in place

namespace {

const std::vector<std::pair<const char*, Make>>& five_proposals() {
  static const std::vector<std::pair<const char*, Make>> p = {
      {"Scan-SP", [](mc::ScanContext& c) { return mc::make_sp_executor(c, 1); }},
      {"Scan-MPS", [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4); }},
      {"Scan-MPS-direct",
       [](mc::ScanContext& c) { return mc::make_mps_executor(c, 4, true); }},
      {"Scan-MP-PC",
       [](mc::ScanContext& c) { return mc::make_mppc_executor(c, 2, 4); }},
      {"Scan-MPS-multinode",
       [](mc::ScanContext& c) { return mc::make_multinode_executor(c, 1, 8); }},
  };
  return p;
}

/// One in-place run(v, v) on a fresh cluster under `spec` ("" = no
/// injector); `v` holds the input and receives the output.
mc::RunResult run_in_place(const Make& make, const std::string& spec,
                           std::vector<int>& v, mc::ScanKind kind) {
  auto cluster = mt::tsubame_kfc_cluster(1);
  std::unique_ptr<mgs::sim::FaultInjector> fi;
  if (!spec.empty()) {
    fi = std::make_unique<mgs::sim::FaultInjector>(
        mgs::sim::parse_fault_plan(spec));
    cluster.set_fault_injector(fi.get());
  }
  mc::ScanContext ctx(cluster);
  auto ex = make(ctx);
  ex->prepare(kN, kG);
  return ex->run(v, v, kind);
}

bool restarted(const mgs::sim::FaultReport& f) {
  for (const auto& step : f.replanned) {
    if (step.find("restarted on survivors") != std::string::npos) return true;
  }
  return false;
}

}  // namespace

// `out` aliasing `in` is an in-place scan: healthy, and with a device lost
// mid-run -- Scan-MPS resumes; direct, MP-PC and multinode restart, some
// after earlier groups or waves already wrote their output rows -- every
// proposal must still produce the serial scan of the original input.
TEST(ExecutorInPlace, MatchesTheSerialReferenceHealthyAndUnderLoss) {
  const auto data =
      mgs::util::random_i32(static_cast<std::size_t>(kN * kG), 41);
  for (const auto kind : {mc::ScanKind::kInclusive, mc::ScanKind::kExclusive}) {
    const auto want = reference_batch_scan<int>(data, kN, kG, kind);
    for (const auto& [name, make] : five_proposals()) {
      std::vector<int> v = data;
      const double healthy = run_in_place(make, "", v, kind).seconds;
      EXPECT_EQ(v, want) << name << " healthy";
      // GPU 1 dies at a fraction of the healthy makespan; GPU 5 sits in
      // Scan-MP-PC's second group and the multinode upper ranks.
      for (int dead : {1, 5}) {
        for (double frac : {0.1, 0.5, 0.9}) {
          std::ostringstream spec;
          spec.precision(17);
          spec << "device-down:dev=" << dead << ",at=" << frac * healthy;
          v = data;
          const auto f = run_in_place(make, spec.str(), v, kind).faults;
          EXPECT_EQ(v, want) << name << " " << spec.str();
          if (dead == 1 && frac == 0.1 && std::string(name) != "Scan-SP") {
            if (std::string(name) == "Scan-MPS") {
              EXPECT_FALSE(f.resumed_stages.empty()) << name;
            } else {
              EXPECT_TRUE(restarted(f)) << name;
            }
          }
        }
      }
    }
  }
}

// prepare() holds each portion's input and output bytes on its GPU --
// the device budget the portions occupy -- exactly as much as when every
// call staged them through per-GPU copies (values measured then).
TEST(ExecutorMemory, PrepareReservesEachPortionsBytes) {
  const std::vector<std::vector<std::int64_t>> want = {
      {0, 131072, 0, 0, 0, 0, 0, 0},
      {32768, 32768, 32768, 32768, 0, 0, 0, 0},
      {32768, 32768, 32768, 32768, 0, 0, 0, 0},
      {16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384},
      {16384, 16384, 16384, 16384, 16384, 16384, 16384, 16384},
  };
  const auto& proposals = five_proposals();
  ASSERT_EQ(proposals.size(), want.size());
  for (std::size_t p = 0; p < proposals.size(); ++p) {
    auto cluster = mt::tsubame_kfc_cluster(1);
    mc::ScanContext ctx(cluster);
    auto ex = proposals[p].second(ctx);
    ex->prepare(kN, kG);
    std::vector<std::int64_t> got;
    for (int d = 0; d < cluster.num_devices(); ++d) {
      got.push_back(cluster.device(d).allocated_bytes());
    }
    EXPECT_EQ(got, want[p]) << proposals[p].first;
  }
}

// Case 2 through an executor: a portion larger than one (shrunken) device
// throws from prepare(); scattering the same problem over more GPUs fits.
TEST(ExecutorMemory, PortionLargerThanADeviceThrowsFromPrepare) {
  mt::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.networks_per_node = 1;
  cfg.gpus_per_network = 4;
  cfg.gpu = mgs::sim::k80_spec();
  cfg.gpu.memory_bytes = 1 << 20;
  // W=2 portions need in + out just over 1 MiB; W=4 portions half that.
  const std::int64_t n = 2 * ((1 << 17) + 4);
  {
    mt::Cluster cluster(cfg);
    mc::ScanContext ctx(cluster);
    auto two = mc::make_mps_executor(ctx, 2);
    EXPECT_THROW(two->prepare(n, 1), mgs::util::Error);
  }
  mt::Cluster cluster(cfg);
  mc::ScanContext ctx(cluster);
  auto four = mc::make_mps_executor(ctx, 4);
  four->prepare(n, 1);
  const auto data = mgs::util::random_i32(static_cast<std::size_t>(n), 43);
  std::vector<int> out(data.size());
  four->run(data, out, mc::ScanKind::kInclusive);
  EXPECT_EQ(out, reference_batch_scan<int>(data, n, 1,
                                           mc::ScanKind::kInclusive));
}
