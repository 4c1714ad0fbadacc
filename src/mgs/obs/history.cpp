#include "mgs/obs/history.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "mgs/obs/export.hpp"
#include "mgs/util/check.hpp"

namespace mgs::obs {

std::string HistoryKey::str() const {
  std::ostringstream os;
  os << executor << " " << dtype << "/" << op << " pipe=" << pipeline
     << " n=" << n << " g=" << g << " dev=" << devices;
  return os.str();
}

RunHistory::RunHistory(std::string path) : path_(std::move(path)) {}

void RunHistory::append(const HistoryEntry& e) const {
  const auto parent = std::filesystem::path(path_).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path_, std::ios::app);
  MGS_REQUIRE(os.good(), "history: cannot open " + path_);
  // One compact run-report-shaped document per line: the standard header
  // plus a "history" object for the key fields the header lacks;
  // spans/metrics are omitted and critical_path repeats the makespan, so
  // the line still loads as a run-report.
  os << "{\"schema\":\"mgs-run-report-v1\",\"history\":{\"pipeline\":\""
     << json_escape(e.key.pipeline) << "\",\"g\":" << e.key.g << "}";
  os << ",\"run\":{\"executor\":\"" << json_escape(e.key.executor)
     << "\",\"dtype\":\"" << json_escape(e.key.dtype) << "\",\"op\":\""
     << json_escape(e.key.op) << "\",\"n\":" << e.key.n
     << ",\"devices\":" << e.key.devices
     << ",\"seconds\":" << json_double(e.seconds)
     << ",\"payload_bytes\":" << e.payload_bytes << ",\"breakdown\":{";
  bool first = true;
  for (const auto& [phase, secs] : e.breakdown) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(phase) << "\":" << json_double(secs);
  }
  os << "},\"faults\":{}}";
  os << ",\"critical_path\":{\"total\":" << json_double(e.seconds)
     << "}}\n";
  MGS_REQUIRE(os.good(), "history: write failed for " + path_);
}

std::vector<HistoryEntry> RunHistory::load() const {
  std::vector<HistoryEntry> out;
  std::ifstream is(path_);
  if (!is.good()) return out;  // nothing stored yet
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const JsonValue doc = parse_json(line);
    MGS_REQUIRE(doc.find("schema") != nullptr &&
                    doc.find("schema")->str_or("") == "mgs-run-report-v1",
                "history: " + path_ + ":" + std::to_string(lineno) +
                    " is not an mgs-run-report-v1 line");
    HistoryEntry e;
    if (const JsonValue* h = doc.find("history")) {
      if (const auto* v = h->find("pipeline")) {
        e.key.pipeline = v->str_or("auto");
      }
      if (const auto* v = h->find("g")) {
        e.key.g = static_cast<std::int64_t>(v->num_or(0.0));
      }
    }
    const JsonValue* run = doc.find("run");
    MGS_REQUIRE(run != nullptr, "history: line " + std::to_string(lineno) +
                                    " has no run header");
    if (const auto* v = run->find("executor")) e.key.executor = v->str_or("");
    if (const auto* v = run->find("dtype")) e.key.dtype = v->str_or("i32");
    if (const auto* v = run->find("op")) e.key.op = v->str_or("plus");
    if (const auto* v = run->find("n")) {
      e.key.n = static_cast<std::uint64_t>(v->num_or(0.0));
    }
    if (const auto* v = run->find("devices")) {
      e.key.devices = static_cast<int>(v->num_or(0.0));
    }
    if (const auto* v = run->find("seconds")) e.seconds = v->num_or(0.0);
    if (const auto* v = run->find("payload_bytes")) {
      e.payload_bytes = static_cast<std::uint64_t>(v->num_or(0.0));
    }
    if (const auto* v = run->find("breakdown");
        v != nullptr && v->type == JsonValue::Type::kObject) {
      for (const auto& [phase, secs] : v->object) {
        e.breakdown.emplace_back(phase, secs.num_or(0.0));
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

RunReport report_from_entry(const HistoryEntry& e) {
  RunReport rep;
  rep.run.executor = e.key.executor;
  rep.run.dtype = e.key.dtype;
  rep.run.op = e.key.op;
  rep.run.n = e.key.n;
  rep.run.devices = e.key.devices;
  rep.run.seconds = e.seconds;
  rep.run.payload_bytes = e.payload_bytes;
  rep.run.breakdown = e.breakdown;
  auto& cp = rep.critical_path;
  cp.start_seconds = 0.0;
  cp.end_seconds = e.seconds;
  cp.total_seconds = e.seconds;
  if (e.seconds > 0.0) cp.by_category[Category::kOther] = e.seconds;
  double at = 0.0;
  for (const auto& [phase, secs] : e.breakdown) {
    CriticalPathReport::StageRow row;
    row.name = phase;
    row.start_seconds = at;
    row.end_seconds = at + secs;
    // The store keeps per-stage durations but not their category split;
    // the duration lands in "other" so diff rows still telescope exactly.
    row.by_category[Category::kOther] = secs;
    at += secs;
    cp.stages.push_back(std::move(row));
  }
  return rep;
}

}  // namespace mgs::obs
