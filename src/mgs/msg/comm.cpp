#include "mgs/msg/comm.hpp"

#include <algorithm>
#include <set>

#include "mgs/obs/span.hpp"

namespace mgs::msg {

Communicator::Communicator(topo::Cluster& cluster, std::vector<int> device_ids)
    : cluster_(&cluster), device_ids_(std::move(device_ids)) {
  MGS_REQUIRE(!device_ids_.empty(), "Communicator needs at least one rank");
  std::set<int> seen;
  for (int id : device_ids_) {
    MGS_REQUIRE(id >= 0 && id < cluster_->num_devices(),
                "Communicator: device id out of range");
    MGS_REQUIRE(seen.insert(id).second,
                "Communicator: duplicate device in rank list");
  }
}

int Communicator::device_of(int rank) const {
  MGS_CHECK(rank >= 0 && rank < size(), "rank out of range");
  return device_ids_[static_cast<std::size_t>(rank)];
}

sim::Clock& Communicator::clock_of(int rank) {
  return cluster_->device(device_of(rank)).clock();
}

sim::Clock& Communicator::dma_clock_of(int rank) {
  return cluster_->device(device_of(rank)).dma_clock();
}

double Communicator::collective_alpha() const {
  return cluster_->config().links.mpi_overhead_us * 1e-6;
}

double Communicator::message_time(int src_rank, int dst_rank,
                                  std::uint64_t bytes) const {
  const topo::LinkSpec& links = cluster_->config().links;
  // CUDA-aware MPI: the payload rides the best available link between the
  // two GPUs; MPI adds its software overhead on top.
  topo::TransferEngine probe(*cluster_);
  const double wire =
      probe.link_time(device_of(src_rank), device_of(dst_rank), bytes);
  return links.mpi_overhead_us * 1e-6 + wire;
}

void Communicator::check_ranks_alive(const char* op) {
  const sim::FaultInjector* fi = cluster_->fault_injector();
  if (fi == nullptr) return;
  for (int r = 0; r < size(); ++r) {
    if (fi->device_is_down(device_of(r))) {
      throw CommError(std::string(op) + ": rank " + std::to_string(r) +
                          " (device " + std::to_string(device_of(r)) +
                          ") is down",
                      r);
    }
  }
}

double Communicator::timed_message(int src_rank, int dst_rank,
                                   std::uint64_t bytes, int blame_rank) {
  return timed_message_at(src_rank, dst_rank, bytes, blame_rank,
                          clock_of(src_rank).now());
}

double Communicator::timed_message_at(int src_rank, int dst_rank,
                                      std::uint64_t bytes, int blame_rank,
                                      double now) {
  const double base = message_time(src_rank, dst_rank, bytes);
  sim::FaultInjector* fi = cluster_->fault_injector();
  if (fi == nullptr) return base;

  // Message retries/timeouts/re-sends become kFault children of whatever
  // span is open (the enclosing collective's stage), since the collective
  // span itself is only recorded after its completion time is known.
  obs::TraceSession* ts = obs::TraceSession::current();
  std::uint64_t obs_retries = 0;
  const auto fault_event = [&](const char* kind, double at, int attempt) {
    if (ts == nullptr) return;
    obs::SpanRecord ev;
    ev.name = kind;
    ev.kind = obs::SpanKind::kFault;
    ev.category = obs::Category::kOther;
    ev.device = device_of(dst_rank);
    ev.src_device = device_of(src_rank);
    ev.start_seconds = at;
    ev.end_seconds = at;
    ev.notes.emplace_back("attempt", std::to_string(attempt));
    ev.notes.emplace_back("op", "message");
    ts->add_event(std::move(ev));
    ts->metrics().inc("fault_events_total", {{"kind", kind}});
  };

  const int src = device_of(src_rank);
  const int dst = device_of(dst_rank);
  const double attempt_time = base * fi->transfer_slowdown(src, dst, now);
  const sim::FaultPlan& plan = fi->plan();
  if (fi->device_down_at(src, now)) {
    throw CommError("message from down rank " + std::to_string(src_rank),
                    src_rank);
  }
  if (fi->device_down_at(dst, now)) {
    throw CommError("message to down rank " + std::to_string(dst_rank),
                    dst_rank);
  }
  double total = 0.0;
  for (int attempt = 0;; ++attempt) {
    const auto verdict = fi->on_transfer_attempt(src, dst, attempt, now);
    const bool timed_out = attempt_time > plan.timeout_seconds;
    const double spent = timed_out ? plan.timeout_seconds : attempt_time;
    total += spent;
    if (!timed_out && !verdict.transient_fail) {
      if (verdict.corrupt) {
        // Checksum mismatch on arrival: pay one re-send.
        ++faults_seen_.corruptions_detected;
        ++faults_seen_.retries;
        ++obs_retries;
        fault_event("corrupt-resend", now + total, attempt);
        faults_seen_.retry_seconds += attempt_time;
        total += attempt_time;
      }
      if (ts != nullptr && obs_retries != 0) {
        ts->metrics().add("fault_retries", {},
                          static_cast<double>(obs_retries));
      }
      return total;
    }
    if (timed_out) {
      ++faults_seen_.timeouts;
    } else {
      ++faults_seen_.transient_failures;
    }
    fault_event(timed_out ? "timeout" : "transient", now + total, attempt);
    faults_seen_.retry_seconds += spent;
    if (attempt >= plan.max_retries) {
      throw CommError("message rank " + std::to_string(src_rank) + " -> " +
                          std::to_string(dst_rank) +
                          (timed_out ? " timed out" : " failed") + " after " +
                          std::to_string(attempt + 1) + " attempts",
                      blame_rank);
    }
    const double backoff =
        plan.backoff_base_us * 1e-6 * static_cast<double>(1ll << attempt);
    total += backoff;
    faults_seen_.retry_seconds += backoff;
    ++faults_seen_.retries;
    ++obs_retries;
  }
}

double Communicator::barrier() {
  check_ranks_alive("MPI_Barrier");
  double start = 0.0;
  std::vector<double> entry(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    entry[static_cast<std::size_t>(r)] = clock_of(r).now();
    start = std::max(start, entry[static_cast<std::size_t>(r)]);
  }
  if (const sim::FaultInjector* fi = cluster_->fault_injector()) {
    // A rank that would dwell in the barrier longer than the per-message
    // timeout gives up and reports the laggard (MPI_ERR_TIMEDOUT-style).
    const double timeout = fi->plan().timeout_seconds;
    double earliest = entry[0];
    int laggard = 0;
    for (int r = 0; r < size(); ++r) {
      earliest = std::min(earliest, entry[static_cast<std::size_t>(r)]);
      if (entry[static_cast<std::size_t>(r)] >= start) laggard = r;
    }
    if (start - earliest > timeout) {
      throw CommError("MPI_Barrier: timed out waiting for rank " +
                          std::to_string(laggard),
                      laggard);
    }
  }
  int levels = 0;
  for (int n = size(); n > 1; n = (n + 1) / 2) ++levels;
  const double completion = start + collective_alpha() * std::max(1, levels);
  for (int r = 0; r < size(); ++r) clock_of(r).sync_to(completion);
  // Record the *master's* dwell time (what Figure 14 plots).
  breakdown_.add("MPI_Barrier", completion - entry[0]);
  trace_collective("MPI_Barrier", start, completion, 0);
  return completion;
}

double Communicator::message_latency(int src_rank, int dst_rank) const {
  topo::TransferEngine probe(*cluster_);
  return collective_alpha() +
         probe.link_latency(device_of(src_rank), device_of(dst_rank));
}

void Communicator::trace_isend(int src_rank, int dst_rank, double start,
                               double engine_release, double completion,
                               std::uint64_t bytes) {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return;
  obs::SpanRecord rec;
  rec.name = "MPI_Isend";
  rec.kind = obs::SpanKind::kCollective;
  rec.category = obs::Category::kMpi;
  rec.device = device_of(dst_rank);
  rec.src_device = device_of(src_rank);
  rec.start_seconds = start;
  rec.end_seconds = engine_release;
  rec.bytes = bytes;
  rec.notes.emplace_back("engine", sim::to_string(sim::Engine::kDma));
  rec.notes.emplace_back("latency_us",
                         std::to_string((completion - engine_release) * 1e6));
  ts->add_event(std::move(rec));
  obs::MetricsRegistry& m = ts->metrics();
  m.inc("mpi_ops_total", {{"op", "MPI_Isend"}});
  m.add("mpi_seconds", {{"op", "MPI_Isend"}}, completion - start);
  if (bytes != 0) {
    m.add("transfer_bytes", {{"kind", "mpi"}}, static_cast<double>(bytes));
  }
}

void Communicator::trace_collective(const char* name, double start,
                                    double completion, std::uint64_t bytes) {
  obs::TraceSession* ts = obs::TraceSession::current();
  if (ts == nullptr) return;
  obs::SpanRecord rec;
  rec.name = name;
  rec.kind = obs::SpanKind::kCollective;
  rec.category = obs::Category::kMpi;
  rec.device = device_of(0);
  rec.start_seconds = start;
  rec.end_seconds = completion;
  rec.bytes = bytes;
  ts->add_event(std::move(rec));
  obs::MetricsRegistry& m = ts->metrics();
  m.inc("mpi_ops_total", {{"op", name}});
  m.add("mpi_seconds", {{"op", name}}, completion - start);
  if (bytes != 0) {
    m.add("transfer_bytes", {{"kind", "mpi"}}, static_cast<double>(bytes));
  }
}

}  // namespace mgs::msg
