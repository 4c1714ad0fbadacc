#include "mgs/topo/transfer.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "mgs/obs/span.hpp"

namespace mgs::topo {

namespace {

obs::Category category_of(LinkType link) {
  switch (link) {
    case LinkType::kP2P:
      return obs::Category::kP2P;
    case LinkType::kSelf:
    case LinkType::kHostStaged:
      return obs::Category::kHostStaged;
    case LinkType::kInterNode:
      return obs::Category::kMpi;
  }
  return obs::Category::kOther;
}

}  // namespace

double TransferEngine::time_on_link(LinkType link, std::uint64_t bytes) const {
  const LinkSpec& links = cluster_->config().links;
  const double b = static_cast<double>(bytes);
  switch (link) {
    case LinkType::kSelf:
      // Device-local copy engine: bounded by DRAM (read + write).
      return 1e-6 + 2.0 * b / (cluster_->config().gpu.peak_bandwidth_bps() *
                               cluster_->config().gpu.mem_efficiency_base);
    case LinkType::kP2P:
      return links.p2p_latency_us * 1e-6 +
             b / (links.p2p_bandwidth_gbps * 1e9);
    case LinkType::kHostStaged:
      // Two hops (D2H then H2D), each paying latency and bandwidth.
      return 2.0 * (links.host_latency_us * 1e-6 +
                    b / (links.host_bandwidth_gbps * 1e9));
    case LinkType::kInterNode:
      return (links.ib_latency_us + links.mpi_overhead_us) * 1e-6 +
             b / (links.ib_bandwidth_gbps * 1e9);
  }
  return 0.0;
}

double TransferEngine::time_on_link_2d(LinkType link, std::uint64_t bytes,
                                       std::uint64_t rows) const {
  const LinkSpec& links = cluster_->config().links;
  // Per-row cost scale: the on-device copy engine and P2P peer writes
  // pipeline strided rows almost for free; host staging pays a host
  // round trip on each of its two hops.
  double row_scale = 1.0;
  switch (link) {
    case LinkType::kSelf:
      row_scale = 0.1;
      break;
    case LinkType::kP2P:
      row_scale = 0.2;
      break;
    case LinkType::kHostStaged:
      row_scale = 2.0;
      break;
    case LinkType::kInterNode:
      row_scale = 1.0;  // RDMA scatter/gather entries
      break;
  }
  return time_on_link(link, bytes) +
         row_scale * links.row_overhead_us * 1e-6 * static_cast<double>(rows);
}

double TransferEngine::link_time(int src_dev, int dst_dev,
                                 std::uint64_t bytes) const {
  return time_on_link(cluster_->link_between(src_dev, dst_dev), bytes);
}

double TransferEngine::link_time_2d(int src_dev, int dst_dev,
                                    std::uint64_t bytes,
                                    std::uint64_t rows) const {
  return time_on_link_2d(cluster_->link_between(src_dev, dst_dev), bytes,
                         rows);
}

double TransferEngine::link_latency(int src_dev, int dst_dev) const {
  return latency_of(cluster_->link_between(src_dev, dst_dev));
}

double TransferEngine::latency_of(LinkType link) const {
  const LinkSpec& links = cluster_->config().links;
  switch (link) {
    case LinkType::kSelf:
      return 1e-6;
    case LinkType::kP2P:
      return links.p2p_latency_us * 1e-6;
    case LinkType::kHostStaged:
      return 2.0 * links.host_latency_us * 1e-6;
    case LinkType::kInterNode:
      return (links.ib_latency_us + links.mpi_overhead_us) * 1e-6;
  }
  return 0.0;
}

TransferResult TransferEngine::account(int src_dev, int dst_dev,
                                       std::uint64_t bytes,
                                       std::uint64_t rows, bool is_2d,
                                       bool& corrupt_once, sim::Engine engine,
                                       double earliest_start) {
  TransferResult r;
  r.bytes = bytes;
  LinkType link = cluster_->link_between(src_dev, dst_dev);

  sim::Clock& src_clock = cluster_->device(src_dev).engine_clock(engine);
  sim::Clock& dst_clock = cluster_->device(dst_dev).engine_clock(engine);
  const double start =
      std::max({src_clock.now(), dst_clock.now(), earliest_start});

  // Fault-recovery sub-events are buffered here (with absolute simulated
  // times) and attached as children of the transfer span once its extent
  // is known. Empty on the healthy path and when no session is installed.
  obs::TraceSession* ts = obs::TraceSession::current();
  std::vector<obs::SpanRecord> fault_events;
  std::uint64_t obs_retries = 0;
  const auto fault_event =
      [&](const char* name, double at,
          std::initializer_list<std::pair<std::string, std::string>> notes) {
        if (ts == nullptr) return;
        obs::SpanRecord ev;
        ev.name = name;
        ev.kind = obs::SpanKind::kFault;
        ev.category = obs::Category::kOther;
        ev.device = dst_dev;
        ev.src_device = src_dev;
        ev.start_seconds = at;
        ev.end_seconds = at;
        ev.notes.assign(notes.begin(), notes.end());
        fault_events.push_back(std::move(ev));
      };

  sim::FaultInjector* fi = cluster_->fault_injector();
  double seconds = 0.0;
  if (fi == nullptr) {
    // Healthy fast path: identical to the pre-resilience engine.
    seconds = is_2d ? time_on_link_2d(link, bytes, rows)
                    : time_on_link(link, bytes);
  } else {
    if (fi->device_down_at(src_dev, start)) {
      throw TransferError("transfer from down device " +
                              std::to_string(src_dev),
                          src_dev, dst_dev);
    }
    if (fi->device_down_at(dst_dev, start)) {
      throw TransferError("transfer to down device " +
                              std::to_string(dst_dev),
                          src_dev, dst_dev);
    }
    if (link != LinkType::kSelf && fi->link_is_down(src_dev, dst_dev, start)) {
      if (link == LinkType::kP2P) {
        // A dead peer link between GPUs of one node still has the host
        // path: reroute as a D2H+H2D staging pair.
        link = LinkType::kHostStaged;
        ++faults_seen_.rerouted_transfers;
        faults_seen_.rerouted_bytes += bytes;
        fault_event("reroute", start,
                    {{"from", "p2p"}, {"to", "host-staged"}});
      } else {
        throw TransferError("link " + std::to_string(src_dev) + "->" +
                                std::to_string(dst_dev) +
                                " down with no alternate route",
                            src_dev, dst_dev);
      }
    }

    const double base = is_2d ? time_on_link_2d(link, bytes, rows)
                              : time_on_link(link, bytes);
    const double attempt_time =
        base * fi->transfer_slowdown(src_dev, dst_dev, start);
    const sim::FaultPlan& plan = fi->plan();
    for (int attempt = 0;; ++attempt) {
      const auto verdict =
          fi->on_transfer_attempt(src_dev, dst_dev, attempt, start + seconds);
      const bool timed_out = attempt_time > plan.timeout_seconds;
      const double spent =
          timed_out ? plan.timeout_seconds : attempt_time;
      seconds += spent;
      if (!timed_out && !verdict.transient_fail) {
        if (verdict.corrupt) {
          // Checksum mismatch on arrival: one re-transfer (the caller
          // performs the functional corrupt-verify-repair pass).
          ++faults_seen_.corruptions_detected;
          ++faults_seen_.retries;
          ++obs_retries;
          fault_event("corrupt-retransfer", start + seconds,
                      {{"attempt", std::to_string(attempt)}});
          faults_seen_.retry_seconds += attempt_time;
          seconds += attempt_time;
          corrupt_once = true;
        }
        break;
      }
      if (timed_out) {
        ++faults_seen_.timeouts;
      } else {
        ++faults_seen_.transient_failures;
      }
      fault_event(timed_out ? "timeout" : "transient", start + seconds,
                  {{"attempt", std::to_string(attempt)}});
      faults_seen_.retry_seconds += spent;
      if (attempt >= plan.max_retries) {
        throw TransferError(
            std::string(timed_out ? "transfer timed out" : "transfer failed") +
                " after " + std::to_string(attempt + 1) + " attempts (" +
                std::to_string(src_dev) + "->" + std::to_string(dst_dev) +
                ")",
            src_dev, dst_dev);
      }
      // Exponential backoff before the retry, charged as modeled time.
      const double backoff =
          plan.backoff_base_us * 1e-6 * static_cast<double>(1ll << attempt);
      seconds += backoff;
      faults_seen_.retry_seconds += backoff;
      ++faults_seen_.retries;
      ++obs_retries;
    }
  }

  r.link = link;
  r.seconds = seconds;
  // DMA-queue pipelining: a copy engine is held for the payload and
  // per-row time only; the link's fixed latency delays *completion* but
  // overlaps with the next queued transfer, the way back-to-back async
  // copies on one hardware copy engine sustain full link bandwidth. The
  // compute-engine path keeps the legacy fully-serialized semantics.
  const double occupancy =
      engine == sim::Engine::kDma
          ? std::max(0.0, seconds - latency_of(link))
          : seconds;
  src_clock.sync_to(start + occupancy);
  dst_clock.sync_to(start + occupancy);
  r.done = simt::Event{start + seconds};

  if (ts != nullptr) {
    obs::SpanRecord rec;
    rec.name = std::string("copy:") + to_string(link);
    rec.kind = obs::SpanKind::kTransfer;
    rec.category = category_of(link);
    rec.device = dst_dev;
    rec.src_device = src_dev;
    rec.start_seconds = start;
    // The span covers the engine-occupancy window, so spans on one DMA
    // lane never overlap; the pipelined latency tail is kept as a note.
    rec.end_seconds = start + occupancy;
    rec.bytes = bytes;
    rec.notes.emplace_back("link", to_string(link));
    if (engine == sim::Engine::kDma) {
      rec.notes.emplace_back("engine", sim::to_string(engine));
      rec.notes.emplace_back(
          "latency_us", std::to_string((seconds - occupancy) * 1e6));
    }
    const std::uint64_t span_id = ts->add_event(std::move(rec));
    obs::MetricsRegistry& m = ts->metrics();
    for (obs::SpanRecord& ev : fault_events) {
      const std::string kind_name = ev.name;
      ev.parent = span_id;
      ts->add_event(std::move(ev));
      m.inc("fault_events_total", {{"kind", kind_name}});
    }
    if (obs_retries != 0) {
      m.add("fault_retries", {}, static_cast<double>(obs_retries));
    }
    const std::string kind = to_string(link);
    m.inc("transfers_total", {{"kind", kind}});
    m.add("transfer_bytes", {{"kind", kind}}, static_cast<double>(bytes));
    m.add("transfer_seconds", {{"kind", kind}}, seconds);
    m.observe("transfer_size_bytes", {}, static_cast<double>(bytes),
              obs::MetricsRegistry::byte_bounds());
  }
  return r;
}

}  // namespace mgs::topo
