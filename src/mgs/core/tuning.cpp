#include "mgs/core/tuning.hpp"

#include <algorithm>
#include <sstream>

#include "mgs/core/scan_mps.hpp"
#include "mgs/core/scan_sp.hpp"
#include "mgs/core/segmented.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/topo/transfer.hpp"
#include "mgs/util/math.hpp"

namespace mgs::core {

TuningChoice derive_spl(const sim::DeviceSpec& spec, int elem_bytes) {
  MGS_REQUIRE(elem_bytes > 0, "derive_spl: element size must be positive");

  // ---- Premise 1: the block shape where max block parallelism and 100%
  // warp occupancy coincide. With `max_blocks` resident blocks each of
  // `w` warps, the SM holds w*max_blocks warps; full occupancy needs
  // w = max_warps / max_blocks (Table 3's bold row: 64/16 = 4 warps).
  const int warps_per_block = std::max(1, spec.max_warps_per_sm /
                                              spec.max_blocks_per_sm);
  const int threads = warps_per_block * spec.warp_size;

  // Register budget per thread so the register file still admits
  // max_blocks blocks (cc 3.7: 128K / (16*128) = 64 registers).
  //
  // ---- Premise 2: largest P with 6P+16 registers within the budget;
  // P >= 4 is required by the int4 load path. On register files too small
  // to sustain P = 4 at 100% occupancy (e.g. Maxwell's 64K), the warp-
  // occupancy target is relaxed step by step -- "the GPU hardware is able
  // to provide highly satisfactory performance even at lower warp
  // occupancy" (Premise 1, citing Volkov).
  int p = 0;
  int reg_budget = 0;
  for (double occ_target : {1.0, 0.75, 0.5, 0.25}) {
    const auto target_warps =
        static_cast<std::int64_t>(occ_target * spec.max_warps_per_sm);
    reg_budget = static_cast<int>(spec.registers_per_sm /
                                  (target_warps * spec.warp_size));
    if (6 * 4 + 16 > reg_budget) continue;
    p = 4;
    while (2 * p * 6 + 16 <= reg_budget) p *= 2;
    break;
  }
  MGS_REQUIRE(p >= 4,
              "derive_spl: register file too small for the vector loads");

  TuningChoice choice;
  choice.plan.s13.p = p;
  choice.plan.s13.lx = threads;
  choice.plan.s13.ly = 1;
  choice.plan.s13.k = 1;

  // Stage 2: one warp per problem row, several problems per block so the
  // block still has Premise 1's thread count (L_y^2 > 1, B_x^2 = 1).
  choice.plan.s2.p = p;
  choice.plan.s2.lx = spec.warp_size;
  choice.plan.s2.ly = std::max(1, threads / spec.warp_size);
  choice.plan.s2.k = 1;

  choice.plan.validate();

  // Check the choice against the occupancy calculator (it must land on
  // the bold row: max blocks and 100% warp occupancy simultaneously).
  const sim::OccupancyResult occ =
      sim::occupancy(spec, threads, choice.plan.s13.regs_per_thread(),
                     choice.plan.s13.smem_bytes(elem_bytes));

  std::ostringstream why;
  why << "Premise 1: " << warps_per_block << " warps/block ("
      << threads << " threads, l=" << choice.plan.s13.l_log2() << ") -> "
      << occ.blocks_per_sm << " blocks/SM at "
      << static_cast<int>(occ.warp_occupancy * 100) << "% warp occupancy"
      << " on " << spec.name << ". Premise 2: P=" << p << " (p="
      << choice.plan.s13.p_log2() << ") uses "
      << choice.plan.s13.regs_per_thread() << " <= " << reg_budget
      << " registers/thread. Shuffle scans keep shared memory at one "
      << "element per warp (s<=5).";
  choice.rationale = why.str();
  return choice;
}

std::int64_t k1_max_eq1(std::int64_t n, std::int64_t g, const ScanPlan& plan,
                        const sim::DeviceSpec& spec) {
  MGS_REQUIRE(n > 0 && g > 0, "k1_max_eq1: N and G must be positive");
  const std::int64_t denom = static_cast<std::int64_t>(spec.max_blocks_per_sm) *
                             plan.s13.p * plan.s2.p * plan.s13.threads() *
                             plan.s2.threads();
  return std::max<std::int64_t>(1, n * g / denom);
}

std::int64_t k1_max_gpus(std::int64_t n, const StagePlan& s13,
                         int gpus_per_problem) {
  MGS_REQUIRE(n > 0 && gpus_per_problem > 0, "k1_max_gpus: bad arguments");
  return std::max<std::int64_t>(
      1, n / (static_cast<std::int64_t>(gpus_per_problem) * s13.tile()));
}

std::vector<int> k1_candidates(std::int64_t n, std::int64_t g,
                               const ScanPlan& plan,
                               const sim::DeviceSpec& spec,
                               int gpus_per_problem) {
  const std::int64_t bound =
      std::min(k1_max_eq1(n, g, plan, spec),
               k1_max_gpus(n, plan.s13, gpus_per_problem));
  std::vector<int> ks;
  for (std::int64_t k = 1; k <= bound; k *= 2) {
    ks.push_back(static_cast<int>(k));
    if (k > (std::int64_t{1} << 30)) break;
  }
  return ks;
}

int pick_wave_count(topo::Cluster& cluster, std::int64_t n, std::int64_t g,
                    int gpus_per_problem, const ScanPlan& plan,
                    int elem_bytes) {
  MGS_REQUIRE(n > 0 && g > 0 && gpus_per_problem > 0 && elem_bytes > 0,
              "pick_wave_count: bad arguments");
  if (gpus_per_problem < 2 || g < 2) return 1;

  const int elem = elem_bytes;
  const std::int64_t n_local = n / gpus_per_problem;
  const BatchLayout lay = make_layout(n_local, g, plan.s13);
  const sim::DeviceSpec& spec = cluster.config().gpu;

  // C: local compute across the three stages -- the problem data streams
  // through DRAM ~3x (Stage 1 read, Stage 3 read + write).
  double c_seconds =
      3.0 * static_cast<double>(n_local) * static_cast<double>(g) * elem /
      (spec.peak_bandwidth_bps() * spec.mem_efficiency_base);

  // X: aux round trip between each non-master GPU and the master, as the
  // overlapped pipeline issues it (per-device strided 2-D copies of G rows
  // of bx totals, both directions). The copies queue on the master's DMA
  // engine, which pipelines their fixed link latencies away -- occupancy
  // is payload + per-row time, plus one fill latency for the queue.
  topo::TransferEngine probe(cluster);
  const std::uint64_t aux_bytes =
      static_cast<std::uint64_t>(g) * lay.bx * elem;
  double x_seconds = 0.0;
  double max_latency = 0.0;
  for (int d = 1; d < gpus_per_problem; ++d) {
    const int dev = d % cluster.num_devices();
    const double lat = probe.link_latency(dev, 0);
    x_seconds +=
        2.0 * std::max(0.0, probe.link_time_2d(dev, 0, aux_bytes,
                                               static_cast<std::uint64_t>(g)) -
                                lat);
    max_latency = std::max(max_latency, lat);
  }
  x_seconds += 2.0 * max_latency;  // queue fill + final arrival

  // A known straggler stretches whichever side of the overlap it touches:
  // the slowest participant gates every wave barrier, so scale C and X by
  // the worst scheduled slowdown before trading them off. No injector (the
  // healthy path) leaves both untouched.
  if (const sim::FaultInjector* fi = cluster.fault_injector()) {
    const double inf = std::numeric_limits<double>::infinity();
    double comp_slow = 1.0;
    double xfer_slow = 1.0;
    for (int d = 0; d < gpus_per_problem; ++d) {
      const int dev = d % cluster.num_devices();
      comp_slow = std::max(comp_slow, fi->compute_slowdown(dev, inf));
      xfer_slow = std::max(xfer_slow, fi->transfer_slowdown(dev, 0, inf));
    }
    c_seconds *= comp_slow;
    x_seconds *= xfer_slow;
  }
  // Per-wave fixed cost: each wave re-pays the pipeline fill/drain (the
  // wave's last scatter must fully land before its Stage 3 can start) and
  // adds one Stage-1 and one Stage-3 kernel launch to every device's
  // compute chain.
  const double alpha = 2.0 * max_latency +
                       2.0 * spec.kernel_launch_overhead_us * 1e-6;

  const std::int64_t max_waves = std::min<std::int64_t>(g, 16);
  int best_k = 1;
  double best_est = c_seconds + x_seconds;  // k = 1: no overlap
  for (std::int64_t k = 2; k <= max_waves; k *= 2) {
    const double kd = static_cast<double>(k);
    const double est = (c_seconds + x_seconds) / kd +
                       (kd - 1.0) * std::max(c_seconds, x_seconds) / kd +
                       (kd - 1.0) * alpha;
    if (est < best_est) {
      best_est = est;
      best_k = static_cast<int>(k);
    }
  }
  return best_k;
}

ProbeResult probe_plans(
    const std::vector<ScanPlan>& candidates,
    const std::function<double(const ScanPlan&)>& measure) {
  MGS_REQUIRE(!candidates.empty(), "probe_plans: no candidates");
  // Probes run on throwaway hardware: none of their work belongs in the
  // caller's trace.
  const obs::TracePause untraced;
  ProbeResult result;
  for (const ScanPlan& plan : candidates) {
    result.rows.push_back({plan, measure(plan)});
    if (result.rows.back().seconds < result.rows[result.best].seconds) {
      result.best = result.rows.size() - 1;
    }
  }
  return result;
}

namespace {

/// One Scan-SP probe on a throwaway device. The probe element type only
/// has to move the right number of bytes per lane; the premises' cost
/// trade-offs are byte-driven, not value-driven.
template <typename T, typename Op = Plus<T>>
double probe_scan(const sim::DeviceSpec& spec, const ScanPlan& plan,
                  std::int64_t n, std::int64_t g) {
  simt::Device dev(0, spec);
  auto in = dev.alloc<T>(n * g);
  auto out = dev.alloc<T>(n * g);
  return scan_sp<T, Op>(dev, in, out, n, g, plan, ScanKind::kInclusive)
      .seconds;
}

/// `plan` with K^1 = k, for each k.
std::vector<ScanPlan> with_ks(ScanPlan plan, const std::vector<int>& ks) {
  std::vector<ScanPlan> plans;
  for (int k : ks) {
    plan.s13.k = k;
    plans.push_back(plan);
  }
  return plans;
}

}  // namespace

ScanPlan sp_k_search(const sim::DeviceSpec& spec, std::int64_t n,
                     std::int64_t g) {
  const ScanPlan plan = derive_spl(spec, 4).plan;
  const std::int64_t n_probe = std::min(n, kProbeMaxN);
  return probe_plans(with_ks(plan, k1_candidates(n, g, plan, spec, 1)),
                     [&](const ScanPlan& p) {
                       return probe_scan<int>(spec, p, n_probe, 1);
                     })
      .winner()
      .plan;
}

ScanPlan multinode_k_search(const topo::ClusterConfig& config, int m, int w,
                            std::int64_t n, std::int64_t g) {
  MGS_REQUIRE(m >= 1 && w >= 1 && w <= config.gpus_per_node() && n > 0 &&
                  g > 0,
              "multinode_k_search: bad arguments");
  topo::ClusterConfig shape = config;
  shape.nodes = m;
  topo::Cluster cluster(shape);
  std::vector<int> ranks;
  for (int node = 0; node < m; ++node) {
    for (int i = 0; i < w; ++i) {
      ranks.push_back(cluster.global_id(node, i / shape.gpus_per_network,
                                        i % shape.gpus_per_network));
    }
  }

  const ScanPlan plan = derive_spl(shape.gpu, 4).plan;
  const int gpus = m * w;
  const auto k_eq2 = static_cast<int>(util::floor_pow2(
      static_cast<std::uint64_t>(k1_max_gpus(n, plan.s13, gpus))));

  // The i32/plus MPI Scan-MPS the executors run, over zero-filled rows,
  // its workspace kept across the probes.
  const std::vector<std::int32_t> in(static_cast<std::size_t>(n * g));
  std::vector<std::int32_t> out(in.size());
  WorkspacePool ws;
  const auto measure = [&](const ScanPlan& p) {
    cluster.reset_clocks();
    return scan_mps<std::int32_t>(cluster, ranks, in, out, n, g, p,
                                  ScanKind::kInclusive, {}, MpsGather::kMpi,
                                  &ws)
        .seconds;
  };

  // Coarse x4 pass, then a x2 refinement around the winner (the measured
  // cost curve is unimodal in K).
  std::vector<int> coarse;
  for (int k = 1; k <= k_eq2; k *= 4) coarse.push_back(k);
  ProbeRow best = probe_plans(with_ks(plan, coarse), measure).winner();
  const int k = best.plan.s13.k;
  std::vector<int> refine;
  if (k * 2 <= k_eq2) refine.push_back(k * 2);
  if (k / 2 >= 1) refine.push_back(k / 2);
  if (!refine.empty()) {
    const ProbeRow r = probe_plans(with_ks(plan, refine), measure).winner();
    if (r.seconds < best.seconds) best = r;
  }
  best.plan.pipe.overlap = true;
  best.plan.pipe.waves = pick_wave_count(cluster, n, g, gpus, best.plan);
  return best.plan;
}

Autotuner::Autotuner(sim::DeviceSpec spec) : spec_(std::move(spec)) {}

std::vector<ScanPlan> Autotuner::candidates(std::int64_t n, std::int64_t g,
                                            int elem_bytes) const {
  MGS_REQUIRE(n > 0 && g > 0, "Autotuner: N and G must be positive");
  MGS_REQUIRE(elem_bytes == 4 || elem_bytes == 8 || elem_bytes == 16,
              "Autotuner: elem_bytes must be 4, 8 or 16");
  std::vector<ScanPlan> plans;
  const ScanPlan base = derive_spl(spec_, elem_bytes).plan;

  for (int p : {4, 8, 16}) {
    for (int lx : {64, 128, 256}) {
      ScanPlan plan = base;
      plan.s13.p = p;
      plan.s13.lx = lx;
      if (plan.s13.regs_per_thread() > spec_.max_regs_per_thread) continue;
      // Must be resident at all on this device.
      try {
        (void)sim::occupancy(spec_, plan.s13.threads(),
                             plan.s13.regs_per_thread(),
                             plan.s13.smem_bytes(elem_bytes));
      } catch (const util::Error&) {
        continue;
      }
      // K space: Equations 1 and 2/3 for one GPU (at least one full block
      // of work per problem), capped at 256.
      for (int k : k1_candidates(n, g, plan, spec_, 1)) {
        if (k > 256) break;
        plan.s13.k = k;
        plans.push_back(plan);
      }
    }
  }
  MGS_CHECK(!plans.empty(), "Autotuner: empty candidate space");
  return plans;
}

double Autotuner::measure(const ScanPlan& plan, std::int64_t n,
                          std::int64_t g, int elem_bytes) const {
  switch (elem_bytes) {
    case 8:
      return probe_scan<double>(spec_, plan, n, g);
    case 16:
      return probe_scan<SegPair<double>, SegOp<double, Plus<double>>>(
          spec_, plan, n, g);
    default:
      return probe_scan<int>(spec_, plan, n, g);
  }
}

const ProbeRow& Autotuner::tune(std::int64_t n, std::int64_t g,
                                int elem_bytes) {
  const auto key = std::make_tuple(n, g, elem_bytes);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  report_ = probe_plans(candidates(n, g, elem_bytes), [&](const ScanPlan& p) {
    return measure(p, n, g, elem_bytes);
  });
  return cache_.emplace(key, report_.winner()).first->second;
}

}  // namespace mgs::core
