#include "mgs/core/executor.hpp"

#include <sstream>

#include "mgs/core/executor_impl.hpp"

namespace mgs::core {

namespace {

using detail::FactoryTable;

// The five dispatch tables -- the single place where every proposal is
// instantiated over the whole scalar (DType, OpTag) matrix
// (segmented_executor.cpp does the same for the packed pairs). Built at
// compile time; density is static_asserted so a new enumerator without a
// maker row is a build error, not a null dispatch.
constexpr FactoryTable kSpTable = detail::make_table<detail::SpMaker>();
constexpr FactoryTable kMpsTable = detail::make_table<detail::MpsMaker>();
constexpr FactoryTable kMpsDirectTable =
    detail::make_table<detail::MpsDirectMaker>();
constexpr FactoryTable kMppcTable = detail::make_table<detail::MppcMaker>();
constexpr FactoryTable kMultinodeTable =
    detail::make_table<detail::MultinodeMaker>();

static_assert(detail::table_is_dense(kSpTable),
              "Scan-SP dispatch table has unfilled (dtype, op) cells");
static_assert(detail::table_is_dense(kMpsTable),
              "Scan-MPS dispatch table has unfilled (dtype, op) cells");
static_assert(detail::table_is_dense(kMpsDirectTable),
              "Scan-MPS-direct dispatch table has unfilled (dtype, op) cells");
static_assert(detail::table_is_dense(kMppcTable),
              "Scan-MP-PC dispatch table has unfilled (dtype, op) cells");
static_assert(
    detail::table_is_dense(kMultinodeTable),
    "Scan-MPS-multinode dispatch table has unfilled (dtype, op) cells");

}  // namespace

void ScanExecutor::require_ready(std::int64_t in_count,
                                 std::int64_t out_count) const {
  MGS_REQUIRE(n_ > 0 && g_ > 0, "ScanExecutor::run before prepare()");
  MGS_REQUIRE(in_count >= n_ * g_ && out_count >= n_ * g_,
              "ScanExecutor::run: spans must hold N*G elements");
}

PlanKey ScanExecutor::plan_key(const ScanContext& ctx, std::int64_t n,
                               std::int64_t g, int gpus_per_problem) const {
  return PlanKey{ctx.cluster().config().gpu.name,
                 n,
                 g,
                 dtype_,
                 op_,
                 segmented_,
                 gpus_per_problem};
}

std::string ScanExecutor::type_suffix() const {
  std::ostringstream os;
  os << " [" << to_string(dtype_) << "/" << to_string(op_)
     << (segmented_ ? "/seg" : "") << "]";
  return os.str();
}

void ScanExecutor::stamp_report(RunResult& r) const {
  r.faults.degraded = prep_report_.degraded;
  r.faults.degraded_mode = prep_report_.degraded_mode;
  r.faults.excluded_devices = prep_report_.excluded_devices;
  r.faults.replanned = prep_report_.replanned;
  r.faults.invalidated_plans = prep_report_.invalidated_plans;
}

obs::ScopedSpan ScanExecutor::trace_run() const {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return obs::ScopedSpan{};

  obs::SpanRecord run;
  run.name = name();
  run.kind = obs::SpanKind::kRun;
  run.category = obs::Category::kOther;
  run.notes.emplace_back("n", std::to_string(n_));
  run.notes.emplace_back("g", std::to_string(g_));
  run.notes.emplace_back("dtype", to_string(dtype_));
  run.notes.emplace_back("op", to_string(op_));
  obs::ScopedSpan span(std::move(run));

  obs::SpanRecord plan;
  plan.name = "plan";
  plan.kind = obs::SpanKind::kPlan;
  plan.category = obs::Category::kOther;
  plan.notes.emplace_back("config", describe());
  ts->add_event(std::move(plan));

  if (prep_report_.degraded) {
    obs::SpanRecord replan;
    replan.name = "replan";
    replan.kind = obs::SpanKind::kFault;
    replan.category = obs::Category::kOther;
    replan.notes.emplace_back("mode", prep_report_.degraded_mode);
    for (const std::string& step : prep_report_.replanned) {
      replan.notes.emplace_back("step", step);
    }
    ts->add_event(std::move(replan));
    ts->metrics().inc("fault_events_total", {{"kind", "replan"}});
    ts->metrics().inc("degraded_runs_total", {{"executor", name()}});
  }
  ts->metrics().inc("runs_total", {{"executor", name()},
                                   {"dtype", to_string(dtype_)},
                                   {"op", to_string(op_)}});
  return span;
}

void ScanExecutor::finish_run(obs::ScopedSpan& span, RunResult& r) const {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return;
  span.close(r.seconds);
  ts->metrics().add("run_seconds", {{"executor", name()}}, r.seconds);
  r.metrics = ts->metrics().snapshot();
}

// The factories: the one runtime dispatch, (dtype, op) -> monomorphic
// instantiation.
std::unique_ptr<ScanExecutor> make_sp_executor(ScanContext& ctx, int device_id,
                                               DType dtype, OpTag op) {
  return kSpTable.at(dtype, op)(ctx, {.device = device_id});
}

std::unique_ptr<ScanExecutor> make_mps_executor(ScanContext& ctx, int w,
                                                bool direct,
                                                PipelineChoice pipe,
                                                DType dtype, OpTag op) {
  return (direct ? kMpsDirectTable : kMpsTable)
      .at(dtype, op)(ctx, {.w = w, .pipeline = pipe.mode, .waves = pipe.waves});
}

std::unique_ptr<ScanExecutor> make_mppc_executor(ScanContext& ctx, int y,
                                                 int v, int m,
                                                 PipelineChoice pipe,
                                                 DType dtype, OpTag op) {
  return kMppcTable.at(dtype, op)(ctx, {.y = y,
                                        .v = v,
                                        .m = m,
                                        .pipeline = pipe.mode,
                                        .waves = pipe.waves});
}

std::unique_ptr<ScanExecutor> make_multinode_executor(ScanContext& ctx, int m,
                                                      int w,
                                                      PipelineChoice pipe,
                                                      DType dtype, OpTag op) {
  return kMultinodeTable.at(dtype, op)(
      ctx, {.w = w, .m = m, .pipeline = pipe.mode, .waves = pipe.waves});
}

}  // namespace mgs::core
