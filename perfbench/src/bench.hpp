#pragma once
/// \file bench.hpp
/// Shared types of the repository benchmark: run options, the record one
/// timed call produces, the workload interface and the (dtype, op)
/// dispatch used by the data generator and the output oracle.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mgs/core/api.hpp"

namespace perfbench {

namespace core = mgs::core;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setups = 9;       ///< set-up repetitions; setup_s is their median
  /// The loop runs at least this many calls: 100 per host-metric block,
  /// so each block's p90 has 10 samples beyond it.
  int min_calls = 500;
  bool small = false;   ///< tiny shapes and windows (benchmark self-test)
  std::string report_path;  ///< JSON report destination ("" = none)
  std::string git_sha = "unknown";
};

/// Counts and modeled times of one traced run() (a fresh TraceSession per
/// traced call, so every number is that call's own).
struct LayerSample {
  double launches = 0;
  double kernel_bytes = 0;
  double transfers = 0;
  double p2p_bytes = 0;
  double host_staged_bytes = 0;
  double mpi_ops = 0;
  double spans = 0;
  /// obs::analyze_last_run attribution of the makespan, seconds.
  double compute_s = 0, p2p_s = 0, host_staged_s = 0, mpi_s = 0, idle_s = 0,
         critical_s = 0;
};

/// Everything the harness keeps about one timed call.
struct CallRecord {
  std::string key;  ///< repeat identity: equal keys must model equal seconds
  std::int64_t elements = 0;  ///< n * g scanned by the call
  double host_ms = 0;         ///< the timed call, end to end (wall clock)
  double cpu_ms = 0;          ///< process CPU time (all threads), same span
  double prepare_ms = 0;
  double run_ms = 0;
  std::optional<double> probe_ms;  ///< explicit plan_for (traced runs)
  bool probe_missed = false;
  double modeled_s = 0;  ///< RunResult::seconds
  bool ok = true;
  std::string error;
  std::uint64_t plan_hits = 0;  ///< ScanContext counter deltas over the call
  std::uint64_t plan_misses = 0;
  std::uint64_t allocations = 0;  ///< WorkspacePool counter deltas
  std::uint64_t reuses = 0;
  /// RunResult::breakdown folded into the pipeline's stage classes.
  double stage1_s = 0, stage2_comm_s = 0, stage3_s = 0, recovery_s = 0;
  std::uint64_t retries = 0;
  double retry_s = 0;
  bool resumed = false;
  bool degraded = false;
  std::optional<LayerSample> layer;  ///< set on traced calls only
};

/// One benchmark workload. setup() builds fresh state (cluster, context,
/// inputs, warm executors) and may be called several times; call(i) runs
/// the i-th call of the seeded stream on the latest state.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Calls per round. Traced runs alternate traced and untraced rounds, so
  /// both halves see the same mix of calls.
  virtual int round_length() const = 0;
  /// Rounds in the deterministic window every run completes; modeled
  /// metrics and counts are taken over it.
  virtual int window_rounds() const = 0;
  virtual void setup() = 0;
  virtual CallRecord call(std::int64_t i, bool traced) = 0;
  /// One line per call of the first `calls` of the stream (shapes, fault
  /// plans), plus input checksums -- what the seed controls.
  virtual std::vector<std::string> describe_stream(int calls) = 0;
  /// Explicit plan_for timings of plan-cache misses made during set-up.
  std::vector<double> setup_probe_ms;
  /// prepare() timings of the executors a set-up creates.
  std::vector<double> setup_prepare_ms;
  /// Pool allocations/reuses made by the latest set-up.
  std::uint64_t setup_allocations = 0;
  std::uint64_t setup_reuses = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opt);
const std::vector<std::string>& workload_names();

/// Invoke f(T{}, Op{}) for the runtime (dtype, op) pair.
template <typename T, typename F>
decltype(auto) with_op(core::OpTag op, F&& f) {
  switch (op) {
    case core::OpTag::kMax: return f(T{}, core::Max<T>{});
    case core::OpTag::kMin: return f(T{}, core::Min<T>{});
    case core::OpTag::kPlus: break;
  }
  return f(T{}, core::Plus<T>{});
}

/// Over the element types the workloads draw from (u32 is not among them).
template <typename F>
decltype(auto) with_type(core::DType dtype, core::OpTag op, F&& f) {
  switch (dtype) {
    case core::DType::kI64: return with_op<std::int64_t>(op, f);
    case core::DType::kU32: throw std::invalid_argument("u32 not benchmarked");
    case core::DType::kF32: return with_op<float>(op, f);
    case core::DType::kF64: return with_op<double>(op, f);
    case core::DType::kI32: break;
  }
  return with_op<std::int32_t>(op, f);
}

}  // namespace perfbench
