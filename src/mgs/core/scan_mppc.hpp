#pragma once
/// \file scan_mppc.hpp
/// Scan-MP-PC: Multi-GPU Problem with Prioritized Communications
/// (Section 4.1.1, Figure 8). The batch is partitioned across PCIe
/// networks: the V GPUs of one network cooperate on their share of the
/// problems, so every auxiliary-array transfer rides a P2P link and no
/// copy ever stages through host memory (and, multi-node, no MPI at all).

#include <vector>

#include "mgs/core/scan_mps.hpp"

namespace mgs::core {

/// Which GPUs work together and which problems each group owns.
struct MppcPartition {
  std::vector<std::vector<int>> groups;  ///< GPU ids per group (one network)
  std::vector<std::int64_t> g_of_group;  ///< problems owned by each group
  std::vector<std::int64_t> g_offset;    ///< first problem of each group
  int v = 1;                             ///< GPUs per group
};

/// Build the partition from per-network GPU lists: the first `v` GPUs of
/// each of the first min(nets, G) networks form one group each, and the G
/// problems are spread over the groups as evenly as possible. When G is
/// smaller than the number of networks, the group count is reduced (the
/// paper: "the number of PCI-e being used has to be reduced"). A degraded
/// placement passes the surviving GPUs of each network.
inline MppcPartition make_mppc_partition(
    const std::vector<std::vector<int>>& nets, int v, std::int64_t g) {
  MGS_REQUIRE(g >= 1, "mppc: empty batch");
  MppcPartition part;
  part.v = v;
  const std::int64_t total_groups =
      std::min<std::int64_t>(static_cast<std::int64_t>(nets.size()), g);
  std::int64_t next_g = 0;
  for (std::int64_t grp = 0; grp < total_groups; ++grp) {
    const auto& ids = nets[static_cast<std::size_t>(grp)];
    MGS_REQUIRE(v >= 1 && static_cast<int>(ids.size()) >= v,
                "mppc: a network has fewer than V GPUs");
    part.groups.emplace_back(ids.begin(), ids.begin() + v);
    const std::int64_t share =
        g / total_groups + ((grp < g % total_groups) ? 1 : 0);
    part.g_of_group.push_back(share);
    part.g_offset.push_back(next_g);
    next_g += share;
  }
  MGS_CHECK(next_g == g, "mppc: problem partition does not cover the batch");
  return part;
}

/// The paper's partition: `y` PCIe networks per node across `nodes`
/// nodes, `v` GPUs from each network. Throws util::Error if the shape
/// exceeds the hardware.
inline MppcPartition make_mppc_partition(const topo::Cluster& cluster, int y,
                                         int v, std::int64_t g,
                                         int nodes = 1) {
  const auto& cfg = cluster.config();
  MGS_REQUIRE(nodes >= 1 && nodes <= cfg.nodes, "mppc: bad node count");
  MGS_REQUIRE(y >= 1 && y <= cfg.networks_per_node,
              "mppc: more networks requested than the node provides");
  MGS_REQUIRE(v >= 1 && v <= cfg.gpus_per_network,
              "mppc: more GPUs per network than the hardware provides");
  std::vector<std::vector<int>> nets;
  for (int node = 0; node < nodes; ++node) {
    for (int network = 0; network < y; ++network) {
      std::vector<int> ids;
      for (int s = 0; s < v; ++s) {
        ids.push_back(cluster.global_id(node, network, s));
      }
      nets.push_back(std::move(ids));
    }
  }
  return make_mppc_partition(nets, v, g);
}

/// Run Scan-MP-PC over the caller's G problems of N elements: group k
/// scans problems [g_offset[k], +g_of_group[k]) of `in` into `out` where
/// they lie, as Scan-MPS over its GPUs (see scan_mps; `out` may be `in`
/// itself but must not overlap it otherwise). Every group runs the MPS
/// pipeline on its own problems concurrently (disjoint devices,
/// independent simulated clocks). The result is the makespan across
/// groups; the breakdown reported is the slowest group's (groups are
/// symmetric up to a +-1 problem imbalance). The groups' scans run one
/// after another through one checkpoint (`ck`, when given), whose counters
/// sum every group's -- and, across a restart, every aborted attempt's.
template <typename T, typename Op = Plus<T>>
RunResult scan_mppc(topo::Cluster& cluster, const MppcPartition& part,
                    std::span<const T> in, std::span<T> out, std::int64_t n,
                    const ScanPlan& plan, ScanKind kind, Op op = {},
                    WorkspacePool* ws = nullptr,
                    MpsCheckpoint<T>* ck = nullptr) {
  MGS_REQUIRE(!part.groups.empty(), "scan_mppc: empty partition");
  detail::require_rows<T>(in, out,
                          n * (part.g_offset.back() + part.g_of_group.back()));
  MpsCheckpoint<T> local_ck;
  MpsCheckpoint<T>& c = ck != nullptr ? *ck : local_ck;
  RunResult result;
  double worst = -1.0;
  for (std::size_t grp = 0; grp < part.groups.size(); ++grp) {
    // One stage span per group pipeline; groups run concurrently on
    // disjoint devices, so these spans overlap on the simulated timeline
    // (the critical-path analyzer's segment cut handles the overlap).
    obs::ScopedSpan group_stage;
    double group_t0 = 0.0;
    if (obs::TraceSession::current() != nullptr) {
      for (int d : part.groups[grp]) {
        group_t0 = std::max(group_t0, cluster.device(d).clock().now());
      }
      group_stage = obs::open_stage(
          ("group" + std::to_string(grp)).c_str(), group_t0);
    }
    const auto rows = [&](auto span) {
      return span.subspan(static_cast<std::size_t>(part.g_offset[grp] * n),
                          static_cast<std::size_t>(part.g_of_group[grp] * n));
    };
    RunResult r = scan_mps<T, Op>(cluster, part.groups[grp], rows(in),
                                  rows(out), n, part.g_of_group[grp], plan,
                                  kind, op, MpsGather::kCopies, ws, &c);
    group_stage.close(group_t0 + r.seconds);
    result.payload_bytes += r.payload_bytes;
    if (r.seconds > worst) {
      worst = r.seconds;
      result.breakdown = r.breakdown;
    }
  }
  result.seconds = worst;
  result.faults.counters = c.counters;
  return result;
}

}  // namespace mgs::core
