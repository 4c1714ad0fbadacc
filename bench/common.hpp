#pragma once
/// \file common.hpp
/// Shared machinery for the figure/table harnesses. Each bench binary
/// reproduces one experiment of the paper's Section 5 on the simulated
/// TSUBAME-KFC platform and prints the same rows/series the paper plots.
///
/// The paper solves 2^28 total elements; the default here is 2^22 so the
/// functional simulation stays fast on a laptop -- pass --total-log2 28
/// to run at paper scale. Throughput numbers are simulated (see
/// DESIGN.md); the reproduction target is the *shape*: who wins, by what
/// factor, where the crossovers fall.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mgs/baselines/registry.hpp"
#include "mgs/core/api.hpp"
#include "mgs/obs/history.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/stats.hpp"
#include "mgs/util/table.hpp"

namespace mgs::bench {

/// Records every run of the harness in an obs::TraceSession and writes
/// the JSON run-report when flushed (the --trace flag). Held by
/// shared_ptr in BenchConfig so the session outlives parse_bench_config.
/// Live guards register an atexit sweep, so the report is written even
/// when a harness leaves through std::exit (which skips destructors of
/// automatic and shared_ptr-held objects); the destructor unregisters and
/// flushes for the normal return path, and flush() is idempotent.
class TraceGuard {
 public:
  explicit TraceGuard(std::string path) : path_(std::move(path)) {
    info_.executor = "bench-harness";
    register_guard(this);
  }
  ~TraceGuard() {
    unregister_guard(this);
    flush();
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

  /// Write the report; second and later calls (e.g. the atexit sweep
  /// after a normal destruction) are no-ops.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    try {
      core::write_run_report_file(path_, info_, session_);
      std::fprintf(stderr, "trace: wrote %s\n", path_.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace: %s\n", e.what());
    }
  }

  /// Stamp the report header with a representative run's summary.
  void set_run_info(obs::RunInfo info) { info_ = std::move(info); }
  obs::TraceSession& session() { return session_; }

 private:
  static std::vector<TraceGuard*>& live_guards() {
    static std::vector<TraceGuard*> guards;
    return guards;
  }
  static void flush_live_guards() {
    for (TraceGuard* g : live_guards()) g->flush();
  }
  static void register_guard(TraceGuard* g) {
    static const bool registered = [] {
      std::atexit(&flush_live_guards);
      return true;
    }();
    (void)registered;
    live_guards().push_back(g);
  }
  static void unregister_guard(TraceGuard* g) {
    auto& v = live_guards();
    v.erase(std::remove(v.begin(), v.end(), g), v.end());
  }

  std::string path_;
  bool flushed_ = false;
  obs::RunInfo info_;
  obs::TraceSession session_;
};

struct BenchConfig {
  int total_log2 = 22;    ///< total elements per data point (paper: 28)
  int min_n_log2 = 13;    ///< smallest problem size exponent (paper: 13)
  bool csv = false;       ///< machine-readable output
  std::uint64_t seed = 20180521;  ///< IPDPS 2018 :-)
  std::string faults;     ///< fault-injection spec (see sim/fault.hpp); ""
                          ///< = healthy run (bit-identical to pre-fault)
  std::string trace;      ///< run-report output path (--trace); "" = off
  std::shared_ptr<TraceGuard> trace_guard;  ///< live session when tracing
  core::DType dtype = core::DType::kI32;  ///< --dtype: element type
  core::OpTag op = core::OpTag::kPlus;    ///< --op: scan operator
  std::string history_file;  ///< NDJSON run store to append every data
                             ///< point to (--history-file); "" = off

  const char* dtype_name() const { return core::to_string(dtype); }
  const char* op_name() const { return core::to_string(op); }
  /// "" for the default i32/plus config, "_f64_max"-style otherwise --
  /// non-default configs write side-by-side artifacts instead of
  /// clobbering the baseline-tracked i32 files.
  std::string file_suffix() const {
    if (dtype == core::DType::kI32 && op == core::OpTag::kPlus) return "";
    return std::string("_") + dtype_name() + "_" + op_name();
  }
};

inline BenchConfig parse_bench_config(int argc, char** argv,
                                      const std::string& summary) {
  util::Cli cli(argc, argv);
  cli.describe("total-log2", "log2 of total elements per point (default 22; paper used 28)");
  cli.describe("min-n-log2", "smallest per-problem size exponent (default 13)");
  cli.describe("csv", "emit CSV instead of an aligned table");
  cli.describe("seed", "RNG seed for the input data");
  cli.describe("faults",
               "fault-injection spec, e.g. 'transient:prob=0.01;straggler:dev=1,factor=4' "
               "(kinds: transient, link-down, device-down, corrupt, straggler, policy)");
  cli.describe("trace",
               "record every run in an obs::TraceSession and write the JSON "
               "run-report here at exit (inspect with mgs_trace --in FILE)");
  cli.describe("dtype",
               "element type: i32 (default), i64, u32, f32, f64");
  cli.describe("op", "scan operator: plus (default), max, min");
  cli.describe("history-file",
               "append every data point to this NDJSON run store "
               "(scripts/golden.sh builds the golden table this way)");
  if (cli.help_requested()) {
    cli.print_help(summary);
    std::exit(0);
  }
  cli.reject_unknown();
  BenchConfig cfg;
  cfg.total_log2 = static_cast<int>(cli.get_int("total-log2", 22));
  cfg.min_n_log2 = static_cast<int>(cli.get_int("min-n-log2", 13));
  cfg.csv = cli.get_bool("csv", false);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 20180521));
  cfg.faults = cli.get_string("faults", "");
  if (!cfg.faults.empty()) {
    sim::parse_fault_plan(cfg.faults);  // fail fast on a malformed spec
  }
  cfg.trace = cli.get_string("trace", "");
  if (!cfg.trace.empty()) {
    cfg.trace_guard = std::make_shared<TraceGuard>(cfg.trace);
  }
  cfg.dtype = core::parse_dtype(cli.get_string("dtype", "i32"));
  cfg.op = core::parse_op(cli.get_string("op", "plus"));
  cfg.history_file = cli.get_string("history-file", "");
  MGS_REQUIRE(cfg.total_log2 >= cfg.min_n_log2 && cfg.total_log2 <= 28,
              "--total-log2 must be in [--min-n-log2, 28]");
  return cfg;
}

/// Append one data point to the --history-file run store -- the shared
/// hook every figure bench calls; a no-op without the flag. A failed
/// append throws: a golden table with a silently missing line would fail
/// the gate with a misleading "missing key".
inline void record_history(const BenchConfig& cfg, const std::string& executor,
                           std::int64_t n, std::int64_t g, int devices,
                           const std::string& pipeline,
                           const core::RunResult& r) {
  if (cfg.history_file.empty()) return;
  obs::HistoryEntry e;
  e.key.executor = executor;
  e.key.dtype = cfg.dtype_name();
  e.key.op = cfg.op_name();
  e.key.pipeline = pipeline;
  e.key.n = static_cast<std::uint64_t>(n);
  e.key.g = g;
  e.key.devices = devices;
  e.seconds = r.seconds;
  e.payload_bytes = r.payload_bytes;
  e.breakdown = r.breakdown.entries();
  obs::RunHistory(cfg.history_file).append(e);
}

inline void print_table(const util::Table& table, const BenchConfig& cfg) {
  if (cfg.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// One baseline's simulated batch run on a fresh single GPU.
inline core::RunResult baseline_run(const std::string& name,
                                    std::span<const int> data, std::int64_t n,
                                    std::int64_t g) {
  simt::Device dev(0, sim::k80_spec());
  std::vector<int> out(static_cast<std::size_t>(n * g));
  return baselines::run_baseline(name, dev, data, out, n, g,
                                 core::ScanKind::kInclusive);
}

/// Scan-MP-PC with Y networks x V GPUs on a fresh one-node cluster.
inline core::RunResult mppc_run(int y, int v, std::span<const int> data,
                                std::int64_t n, std::int64_t g,
                                const core::ScanPlan& plan) {
  auto cluster = topo::tsubame_kfc_cluster(1);
  const auto part = core::make_mppc_partition(cluster, y, v, g);
  std::vector<int> out(static_cast<std::size_t>(n * g));
  return core::scan_mppc<int>(cluster, part, data, out, n, plan,
                              core::ScanKind::kInclusive);
}

/// Scan-SP on one fresh GPU.
inline core::RunResult sp_run(std::span<const int> data, std::int64_t n,
                              std::int64_t g, const core::ScanPlan& plan) {
  simt::Device dev(0, sim::k80_spec());
  std::vector<int> out(static_cast<std::size_t>(n * g));
  return core::scan_sp<int>(dev, data, out, n, g, plan,
                            core::ScanKind::kInclusive);
}

/// Multi-node Scan-MPS over M nodes x W GPUs; returns result + breakdown.
inline core::RunResult multinode_run(int m, int w, std::span<const int> data,
                                     std::int64_t n, std::int64_t g,
                                     const core::ScanPlan& plan) {
  auto cluster = topo::tsubame_kfc_cluster(m);
  std::vector<int> ids;
  for (int node = 0; node < m; ++node) {
    for (int i = 0; i < w; ++i) {
      ids.push_back(cluster.global_id(node, i / 4, i % 4));
    }
  }
  std::vector<int> out(static_cast<std::size_t>(n * g));
  return core::scan_mps<int>(cluster, ids, data, out, n, g, plan,
                             core::ScanKind::kInclusive, {},
                             core::MpsGather::kMpi);
}

/// Throughput in GB/s for a run of `elems` total elements (in+out bytes).
inline double gbps(std::int64_t elems, double seconds, int elem_bytes = 4) {
  return 2.0 * static_cast<double>(elems) * static_cast<double>(elem_bytes) /
         seconds / 1e9;
}

/// Persistent harness state for the unified API: one cluster, one
/// ScanContext (shared plan cache + workspace pool) and one executor per
/// (proposal, placement) pair, reused across every data point of a sweep.
/// This is the production calling convention. The *_run free functions
/// above call the proposals' span entries (scan_sp, scan_mps, scan_mppc)
/// directly, to run plans the executors cannot: the executors plan through
/// ScanContext::plan_for, while the Section 3.2 and multi-node K searches,
/// Figure 10's per-group plan and the ablations' pinned plans come from
/// elsewhere.
class BenchContext {
 public:
  explicit BenchContext(int nodes = 1)
      : cluster_(topo::tsubame_kfc_cluster(nodes)), ctx_(cluster_) {}

  core::ScanContext& ctx() { return ctx_; }

  /// Attach a fault-injection schedule (--faults spec) to the harness
  /// cluster; every subsequent run pays the modeled resilience costs and
  /// reports them in RunResult::faults. Empty spec detaches (healthy).
  void attach_faults(const std::string& spec) {
    if (spec.empty()) {
      cluster_.set_fault_injector(nullptr);
      injector_.reset();
      return;
    }
    injector_ = std::make_unique<sim::FaultInjector>(sim::parse_fault_plan(spec));
    cluster_.set_fault_injector(injector_.get());
  }

  /// The cached executor for (name, params); created on first use.
  core::ScanExecutor& executor(const std::string& name,
                               const core::ExecutorParams& params = {}) {
    const std::string key =
        name + "/d" + std::to_string(params.device) + "/w" +
        std::to_string(params.w) + "/y" + std::to_string(params.y) + "/v" +
        std::to_string(params.v) + "/m" + std::to_string(params.m) + "/p" +
        std::to_string(static_cast<int>(params.pipeline)) + "x" +
        std::to_string(params.waves) + "/" +
        core::to_string(params.dtype) + "/" + core::to_string(params.op);
    auto it = executors_.find(key);
    if (it == executors_.end()) {
      it = executors_.emplace(key, core::make_executor(name, ctx_, params))
               .first;
    }
    return *it->second;
  }

  /// prepare + run through the cached executor (scratch output buffer).
  core::RunResult run(const std::string& name,
                      const core::ExecutorParams& params,
                      std::span<const int> data, std::int64_t n,
                      std::int64_t g,
                      core::ScanKind kind = core::ScanKind::kInclusive) {
    return run_typed<int>(name, params, data, n, g, kind);
  }

  /// Dtype/op-generic spelling of run(): the executor is instantiated for
  /// T's DType (params.dtype is overwritten) and the given operator tag,
  /// then driven through the erased TypedSpan entry point -- exactly the
  /// path a production caller of the erased API takes.
  template <typename T>
  core::RunResult run_typed(const std::string& name,
                            core::ExecutorParams params,
                            std::span<const T> data, std::int64_t n,
                            std::int64_t g,
                            core::ScanKind kind = core::ScanKind::kInclusive) {
    static_assert(core::dtype_of_v<T>.has_value(),
                  "run_typed: element type outside the DType matrix");
    params.dtype = *core::dtype_of_v<T>;
    auto& ex = executor(name, params);
    ex.prepare(n, g);
    auto& out = typed_out<T>();
    if (static_cast<std::int64_t>(out.size()) < n * g) {
      out.resize(static_cast<std::size_t>(n * g));
    }
    return ex.run(
        core::ConstTypedSpan::of(data.first(static_cast<std::size_t>(n * g))),
        core::TypedSpan::of(
            std::span<T>(out).first(static_cast<std::size_t>(n * g))),
        kind);
  }

 private:
  /// One scratch output vector per element type (reused across points).
  template <typename T>
  std::vector<T>& typed_out() {
    static_assert(core::dtype_of_v<T>.has_value());
    auto& slot =
        typed_out_[static_cast<std::size_t>(*core::dtype_of_v<T>)];
    if (!slot) {
      slot = std::shared_ptr<void>(new std::vector<T>(),
                                   [](void* p) {
                                     delete static_cast<std::vector<T>*>(p);
                                   });
    }
    return *static_cast<std::vector<T>*>(slot.get());
  }

  topo::Cluster cluster_;
  core::ScanContext ctx_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::map<std::string, std::unique_ptr<core::ScanExecutor>> executors_;
  std::array<std::shared_ptr<void>, core::kNumDTypes> typed_out_;
};

}  // namespace mgs::bench
