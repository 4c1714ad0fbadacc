/// mgs_perf: the modeled-time gate and its explanation
/// (docs/observability.md).
///
///   mgs_perf diff BASE CUR [--top N] [--json OUT]
///       BASE and CUR are two run-reports (.json), or two NDJSON run
///       stores (.ndjson) -- e.g. the committed golden table and a fresh
///       scripts/golden.sh run, paired line by line on HistoryKey.
///       Prints the differential critical-path attribution (a ranked
///       "what got slower and where" table whose rows telescope exactly
///       to the makespan delta, with structural changes flagged
///       separately); for stores, one table per key that moved.
///
/// Modeled time is deterministic, so the gate is exact: exit 1 when a
/// store key is missing or extra, or when the makespan or any breakdown
/// entry of a pair differs by more than 1e-12 relative; exit 0 otherwise
/// and 2 on malformed input. The subcommand and its file operands are
/// positional; util::Cli parses the remaining --flags.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mgs/obs/diff.hpp"
#include "mgs/obs/history.hpp"
#include "mgs/obs/report.hpp"
#include "mgs/util/check.hpp"
#include "mgs/util/cli.hpp"

namespace {

using namespace mgs;

constexpr double kRelTol = 1e-12;

int usage(int status) {
  std::fprintf(stderr,
               "usage: mgs_perf diff BASE.json CUR.json [--top N] "
               "[--json OUT]\n"
               "       mgs_perf diff BASE.ndjson CUR.ndjson [--top N]\n");
  return status;
}

bool same(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max(std::abs(a), std::abs(b));
}

/// The analyzer's makespan for a traced report, the header's otherwise.
double makespan(const obs::RunReport& r) {
  return r.critical_path.total_seconds > 0.0 ? r.critical_path.total_seconds
                                             : r.run.seconds;
}

/// "<name> (+1.2e-09 rel)": one moved value with its relative change.
std::string moved_item(const std::string& name, double base, double cur) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " (%+.2e rel)",
                base != 0.0 ? (cur - base) / std::abs(base) : 1.0);
  return name + buf;
}

/// What moved between two runs of one configuration: the makespan and
/// every breakdown entry whose value differs or that only one side has.
std::vector<std::string> moved(const obs::RunReport& base,
                               const obs::RunReport& cur) {
  std::vector<std::string> out;
  if (!same(makespan(base), makespan(cur))) {
    out.push_back(moved_item("makespan", makespan(base), makespan(cur)));
  }
  const std::map<std::string, double> b(base.run.breakdown.begin(),
                                        base.run.breakdown.end());
  const std::map<std::string, double> c(cur.run.breakdown.begin(),
                                        cur.run.breakdown.end());
  for (const auto& [phase, secs] : b) {
    const auto it = c.find(phase);
    if (it == c.end()) {
      out.push_back(phase + " (baseline only)");
    } else if (!same(secs, it->second)) {
      out.push_back(moved_item(phase, secs, it->second));
    }
  }
  for (const auto& [phase, secs] : c) {
    if (b.count(phase) == 0) out.push_back(phase + " (current only)");
  }
  return out;
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) out += (out.empty() ? "" : ", ") + s;
  return out;
}

int gate_reports(const std::string& base_path, const std::string& cur_path,
                 std::size_t top, const std::string& json_out) {
  const auto base = obs::load_run_report(base_path);
  const auto cur = obs::load_run_report(cur_path);
  const auto d = obs::diff_reports(base, cur);
  std::printf("baseline: %s\ncurrent:  %s\n\n%s", base_path.c_str(),
              cur_path.c_str(), obs::format_diff(d, top).c_str());
  if (!json_out.empty()) {
    std::ofstream os(json_out);
    MGS_REQUIRE(os.good(), "cannot open " + json_out);
    obs::write_diff_json(os, d);
    std::printf("\nwrote %s\n", json_out.c_str());
  }
  const auto m = moved(base, cur);
  if (m.empty()) {
    std::printf("\ngate: OK (exact match, rel tol 1e-12)\n");
    return 0;
  }
  std::printf("\ngate: FAIL -- moved: %s\n", join(m).c_str());
  return 1;
}

/// A store indexed by key. The k-th repeat of a key (k >= 2) is spelled
/// "<key> #k", so benches that record the same configuration (Figures 13
/// and 14) pair up in file order.
std::map<std::string, obs::HistoryEntry> index_store(const std::string& path) {
  std::map<std::string, obs::HistoryEntry> out;
  std::map<std::string, int> seen;
  for (auto& e : obs::RunHistory(path).load()) {
    std::string key = e.key.str();
    if (const int k = ++seen[key]; k > 1) key += " #" + std::to_string(k);
    out.emplace(std::move(key), std::move(e));
  }
  return out;
}

int gate_stores(const std::string& base_path, const std::string& cur_path,
                std::size_t top) {
  const auto base = index_store(base_path);
  const auto cur = index_store(cur_path);
  // An empty baseline would pass vacuously.
  MGS_REQUIRE(!base.empty(), "no entries in " + base_path);
  int bad = 0;
  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      std::printf("MISSING  %s\n", key.c_str());
      ++bad;
      continue;
    }
    const auto br = obs::report_from_entry(b);
    const auto cr = obs::report_from_entry(it->second);
    const auto m = moved(br, cr);
    if (m.empty()) continue;
    ++bad;
    std::printf("MOVED    %s -- %s\n%s\n", key.c_str(), join(m).c_str(),
                obs::format_diff(obs::diff_reports(br, cr), top).c_str());
  }
  for (const auto& [key, c] : cur) {
    if (base.count(key) == 0) {
      std::printf("EXTRA    %s\n", key.c_str());
      ++bad;
    }
  }
  std::printf("gate: %s -- %zu baseline keys, %zu current keys, %d differ "
              "(rel tol 1e-12)\n  baseline: %s\n  current:  %s\n",
              bad == 0 ? "OK" : "FAIL", base.size(), cur.size(), bad,
              base_path.c_str(), cur_path.c_str());
  return bad == 0 ? 0 : 1;
}

bool is_store(const std::string& path) {
  return path.size() >= 7 && path.compare(path.size() - 7, 7, ".ndjson") == 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Split "mgs_perf <subcommand> [operands] --flags" by hand: util::Cli
    // rejects positional arguments, so the leading non-flag words are
    // peeled off before it sees argv.
    std::vector<std::string> pos;
    std::vector<char*> flags;
    flags.push_back(argv[0]);
    bool flags_started = false;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (!flags_started && a.rfind("--", 0) != 0) {
        pos.push_back(a);
      } else {
        flags_started = true;
        flags.push_back(argv[i]);
      }
    }
    util::Cli cli(static_cast<int>(flags.size()), flags.data());
    if (pos.empty()) {
      return usage(cli.help_requested() ? 0 : 2);
    }
    if (pos[0] != "diff") {
      std::fprintf(stderr, "mgs_perf: unknown command '%s'\n",
                   pos[0].c_str());
      return usage(2);
    }
    MGS_REQUIRE(pos.size() == 3,
                "diff needs exactly two report or store paths");
    cli.describe("top", "show only the N largest attribution rows (0 = all)");
    cli.describe("json", "also write the machine-readable diff here "
                         "(run-reports only)");
    cli.reject_unknown();
    const auto top = static_cast<std::size_t>(cli.get_int("top", 0));
    const std::string json_out = cli.get_string("json", "");
    MGS_REQUIRE(is_store(pos[1]) == is_store(pos[2]),
                "diff compares two run-reports or two .ndjson "
                "stores, not one of each");
    if (is_store(pos[1])) {
      MGS_REQUIRE(json_out.empty(),
                  "--json applies to run-report diffs only");
      return gate_stores(pos[1], pos[2], top);
    }
    return gate_reports(pos[1], pos[2], top, json_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mgs_perf: %s\n", e.what());
    return 2;
  }
}
