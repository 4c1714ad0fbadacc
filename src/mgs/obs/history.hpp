#pragma once
/// \file history.hpp
/// Run store: a newline-delimited file of compact "mgs-run-report-v1"
/// documents (one JSON object per line, spans and metrics omitted). Each
/// line is keyed by the run's plan identity -- (executor/proposal,
/// pipeline, dtype/op, n, g, devices). The benches append to it when
/// given --history-file, and the committed golden table
/// (bench_results/golden_modeled.ndjson) is such a store: `mgs_perf diff`
/// pairs two stores line by line on HistoryKey and rebuilds each pair
/// with report_from_entry to explain any moved key.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mgs/obs/report.hpp"

namespace mgs::obs {

/// Identity of a measured configuration across runs (the PlanKey fields
/// that matter for makespan comparability, in report spelling).
struct HistoryKey {
  std::string executor;
  std::string dtype = "i32";
  std::string op = "plus";
  std::string pipeline = "auto";  ///< "auto" / "sync" / "overlap"
  std::uint64_t n = 0;            ///< elements per problem
  std::int64_t g = 0;             ///< problems in the batch (0 = unknown)
  int devices = 0;

  /// Canonical one-line spelling.
  std::string str() const;
  friend bool operator==(const HistoryKey&, const HistoryKey&) = default;
};

/// One stored run: key + the makespan and its stage breakdown.
struct HistoryEntry {
  HistoryKey key;
  double seconds = 0.0;     ///< modeled makespan
  std::uint64_t payload_bytes = 0;
  /// Ordered phase -> seconds pairs (RunResult::breakdown).
  std::vector<std::pair<std::string, double>> breakdown;
};

class RunHistory {
 public:
  explicit RunHistory(std::string path);

  /// Append one entry as a single NDJSON line (creates the file and its
  /// directory on first use). Throws util::Error on I/O failure.
  void append(const HistoryEntry& e) const;

  /// Load every entry in file order; a missing file is an empty store.
  /// Malformed lines throw util::Error (the store is machine-written).
  std::vector<HistoryEntry> load() const;

 private:
  std::string path_;
};

/// Reconstitute a diff-able RunReport from a stored entry: the header
/// from the key, sequential stage rows from the stored breakdown. The
/// store keeps no category split, so all time lands in "other"; the
/// stage names carry the explanation. diff_reports over
/// two such reports telescopes exactly -- the residual "(outside stages)"
/// row absorbs whatever the breakdown does not cover.
RunReport report_from_entry(const HistoryEntry& e);

}  // namespace mgs::obs
