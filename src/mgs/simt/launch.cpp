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

}  // namespace mgs::simt::detail
