#include "mgs/simt/launch.hpp"

#include <cstring>
#include <vector>

#include "mgs/sim/occupancy.hpp"

namespace mgs::simt::detail {

void validate_launch(const Device& dev, const LaunchConfig& cfg) {
  MGS_REQUIRE(cfg.grid.count() > 0, "launch '" + cfg.name + "': empty grid");
  MGS_REQUIRE(cfg.block.count() > 0 &&
                  cfg.block.count() <= dev.spec().max_threads_per_block,
              "launch '" + cfg.name + "': bad block size");
  MGS_REQUIRE(cfg.smem_per_block >= 0 &&
                  cfg.smem_per_block <= dev.spec().shared_mem_per_block,
              "launch '" + cfg.name + "': shared memory exceeds device limit");
  MGS_REQUIRE(cfg.regs_per_thread > 0 &&
                  cfg.regs_per_thread <= dev.spec().max_regs_per_thread,
              "launch '" + cfg.name + "': registers per thread out of range");
  // Fail early (rather than inside the cost model) if the configuration
  // cannot be resident at all.
  (void)sim::occupancy(dev.spec(), static_cast<int>(cfg.block.count()),
                       cfg.regs_per_thread, cfg.smem_per_block);
}

std::span<StatsSlot> stats_slots(int count) {
  thread_local std::vector<StatsSlot> slots;
  slots.assign(static_cast<std::size_t>(count), StatsSlot{});
  return slots;
}

std::span<std::byte> smem_arena(std::size_t bytes) {
  thread_local std::vector<std::byte> arena;
  if (arena.size() < bytes) arena.resize(bytes);
  if (bytes != 0) std::memset(arena.data(), 0, bytes);
  return {arena.data(), bytes};
}

sim::KernelTime finish_launch(Device& dev, const LaunchConfig& cfg,
                              std::span<const StatsSlot> slots) {
  // Integer sums, so the total is exact in any order.
  sim::KernelStats total;
  total.blocks = static_cast<std::uint64_t>(cfg.grid.count());
  total.threads_per_block = static_cast<int>(cfg.block.count());
  total.regs_per_thread = cfg.regs_per_thread;
  total.smem_per_block = cfg.smem_per_block;
  for (const StatsSlot& slot : slots) {
    total.bytes_read += slot.bytes_read;
    total.bytes_written += slot.bytes_written;
    total.mem_transactions += slot.mem_transactions;
    total.alu_ops += slot.alu_ops;
  }

  sim::KernelTime t = sim::kernel_time(dev.spec(), total);
  const double start = dev.clock().now();
  // A straggling device runs its kernels slower too, not just its
  // transfers (FaultKind::kStraggler). No injector -> bit-identical time.
  double straggle = 1.0;
  if (const sim::FaultInjector* fi = dev.fault_injector()) {
    straggle = fi->compute_slowdown(dev.id(), start);
    if (straggle > 1.0) t.seconds *= straggle;
  }
  dev.clock().advance(t.seconds);

  if (obs::TraceSession* ts = obs::TraceSession::current()) {
    obs::SpanRecord rec;
    rec.name = cfg.name;
    rec.kind = obs::SpanKind::kKernel;
    rec.category = obs::Category::kCompute;
    rec.device = dev.id();
    rec.start_seconds = start;
    rec.end_seconds = start + t.seconds;
    rec.bytes = total.total_bytes();
    rec.alu_ops = total.alu_ops;
    rec.occupancy = t.occ.warp_occupancy;
    if (straggle > 1.0) {
      rec.notes.emplace_back("straggler_factor", std::to_string(straggle));
    }
    ts->add_event(std::move(rec));
    obs::MetricsRegistry& m = ts->metrics();
    if (straggle > 1.0) m.inc("straggler_kernels_total");
    m.inc("kernel_launches_total", {{"name", cfg.name}});
    m.add("kernel_seconds", {{"name", cfg.name}}, t.seconds);
    m.add("kernel_bytes", {{"name", cfg.name}},
          static_cast<double>(total.total_bytes()));
  }
  return t;
}

}  // namespace mgs::simt::detail
