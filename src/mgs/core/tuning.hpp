#pragma once
/// \file tuning.hpp
/// The paper's tuning strategy (Sections 3.2 and 4.2):
///
///  * Premise 1 -- balance SM block and warp parallelism: pick the block
///    shape where both the max-resident-blocks and 100% warp occupancy are
///    reached simultaneously (the bold row of Table 3);
///  * Premise 2 -- maximize per-thread work P within the register budget
///    that Premise 1 implies;
///  * Premise 3 -- Equation 1: the K search space trading Stage-2
///    occupancy against auxiliary-array traffic;
///  * Premise 4 -- Equations 2 and 3: chunk count must cover the
///    participating GPUs (M*W for Scan-MPS, V for Scan-MP-PC).
///
/// The best plan is found empirically over the premise-trimmed space, the
/// search the paper leaves as future work to automate. Every search runs
/// through one probe loop (probe_plans); the rules that feed it are the
/// Autotuner's full (p, l, K) grid, the Section 3.2 K search and the
/// multi-node (W, V, M) K sweep.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "mgs/core/plan.hpp"
#include "mgs/sim/device_spec.hpp"
#include "mgs/sim/occupancy.hpp"

namespace mgs::topo {
class Cluster;
struct ClusterConfig;
}  // namespace mgs::topo

namespace mgs::core {

/// (s, p, l) choice plus the reasoning that produced it.
struct TuningChoice {
  ScanPlan plan;
  std::string rationale;
};

/// Premises 1 and 2: derive (s, p, l) for a device and element size.
/// For cc 3.7 and 4-byte elements this yields exactly the paper's values:
/// l = 7 (128 threads, 4 warps), p = 3 (P = 8, 64 registers), s <= 5.
/// K is left at 1; set it from the K search below.
TuningChoice derive_spl(const sim::DeviceSpec& spec, int elem_bytes);

/// Equation 1 upper bound for K^1: Stage 2's block count must reach the
/// architecture's max blocks per SM.
///   K^1 <= G*N / (max_blocks * P^1 * P^2 * L^1 * L^2)
std::int64_t k1_max_eq1(std::int64_t n, std::int64_t g, const ScanPlan& plan,
                        const sim::DeviceSpec& spec);

/// Equations 2/3 upper bound: each of the `gpus_per_problem` GPUs must
/// receive at least one chunk of the problem:
///   N / (K^1 * Lx^1 * P^1) >= gpus_per_problem
std::int64_t k1_max_gpus(std::int64_t n, const StagePlan& s13,
                         int gpus_per_problem);

/// The premise-trimmed search space: all powers of two in
/// [1, min(eq1, eq2/3)]. Never empty -- K = 1 is always admissible.
std::vector<int> k1_candidates(std::int64_t n, std::int64_t g,
                               const ScanPlan& plan,
                               const sim::DeviceSpec& spec,
                               int gpus_per_problem);

/// Searches measure real simulated scans, so the single-GPU rules probe a
/// reduced copy of the problem of at most this many elements: the optimum
/// is scale-stable because the premises' trade-offs are per-chunk and
/// per-block, not per-element.
inline constexpr std::int64_t kProbeMaxN = std::int64_t{1} << 18;

/// One measured candidate plan.
struct ProbeRow {
  ScanPlan plan;
  double seconds = 0.0;  ///< simulated seconds of the probe scan
};

/// Every candidate a search measured, in candidate order, and the winner.
struct ProbeResult {
  std::vector<ProbeRow> rows;
  std::size_t best = 0;  ///< index into rows of the first minimum

  const ProbeRow& winner() const { return rows.at(best); }
};

/// The one probe loop: run `measure(plan)` (simulated seconds of a scan
/// with that plan) for every candidate and keep the argmin, the first of
/// any equal minima. This is the "all possible K values ... are tested"
/// step of Sections 3.2 and 4.2, automated against the simulator. Probes
/// run on throwaway hardware, so tracing is paused around every call.
/// Throws util::Error on an empty candidate list.
ProbeResult probe_plans(
    const std::vector<ScanPlan>& candidates,
    const std::function<double(const ScanPlan&)>& measure);

/// The Section 3.2 rule: derive_spl's (p, l) for 4-byte elements, and
/// the K from the Equation-1 space over the full (N, G) shape that scans
/// fastest on one throwaway GPU of `spec` at (min(N, kProbeMaxN), G = 1).
ScanPlan sp_k_search(const sim::DeviceSpec& spec, std::int64_t n,
                     std::int64_t g);

/// The multi-node rule of Section 4.2: "for each tuple (W, V, M) ... all
/// K values from the corresponding search space are empirically tested".
/// The space is the powers of two up to the Equation-2/3 bound over M*W
/// ranks (Equation 1's occupancy concern is folded in empirically:
/// candidates that starve Stage 1/2 measure worse). A coarse x4 pass is
/// refined by x2 around its winner, which keeps a tie. Each candidate is
/// a synchronous multi-node Scan-MPS of 4-byte elements over the first W
/// GPUs of M nodes of `config` (its node count is replaced by M), run on
/// a throwaway cluster with zero-filled input -- modeled time does not
/// depend on element values. Like plan_for's multi-GPU plans, the result
/// has the overlap pipeline on with pick_wave_count's waves; apply
/// PipelineChoice{kSync} for the synchronous path.
ScanPlan multinode_k_search(const topo::ClusterConfig& config, int m, int w,
                            std::int64_t n, std::int64_t g);

/// Premise-3-style cost-model pick of the pipeline wave count for the
/// overlapped multi-GPU paths: splitting G into k waves makes the pipeline
/// roughly (C+X)/k + (k-1)*max(C,X)/k + (k-1)*alpha where C is the local
/// compute time, X the aux-communication time and alpha the per-wave fixed
/// cost (link latencies, per-row DMA overhead) -- more waves hide the
/// smaller of C and X behind the larger but pay alpha each round trip.
/// Returns the power-of-two argmin of that estimate, clamped to [1, g].
/// `elem_bytes` is the real element size of the workload (from the plan
/// key's dtype), entering both the compute and the transfer volume.
int pick_wave_count(topo::Cluster& cluster, std::int64_t n, std::int64_t g,
                    int gpus_per_problem, const ScanPlan& plan,
                    int elem_bytes = 4);

/// Automatic (s, p, l, K) search -- the automation the paper leaves as
/// future work ("Currently, this search is not done automatically, but is
/// part of the future work", Section 3.2). The search space is trimmed by
/// the premises exactly as the paper prescribes (vector-width P >= 4,
/// warp-multiple block sizes, K from Equation 1), and each candidate is
/// measured with a real simulated run; results are memoized per (N, G).
class Autotuner {
 public:
  explicit Autotuner(sim::DeviceSpec spec);

  /// Best plan for a single-GPU batch of G problems of N elements of
  /// `elem_bytes` each (4 or 8; wider elements shrink the register-path
  /// budget and the smem per warp, so they get their own cache rows).
  /// First call for an (N, G, elem_bytes) triple runs the search (cost:
  /// one simulated scan per candidate, tens of candidates); later calls
  /// are cached.
  const ProbeRow& tune(std::int64_t n, std::int64_t g, int elem_bytes = 4);

  /// Every candidate evaluated by the most recent uncached tune() call.
  const ProbeResult& last_report() const { return report_; }

  std::size_t cache_size() const { return cache_.size(); }
  void clear_cache() { cache_.clear(); }

  /// The premise-trimmed candidate plans for (N, G, elem_bytes) on this
  /// device.
  std::vector<ScanPlan> candidates(std::int64_t n, std::int64_t g,
                                   int elem_bytes = 4) const;

 private:
  double measure(const ScanPlan& plan, std::int64_t n, std::int64_t g,
                 int elem_bytes) const;

  sim::DeviceSpec spec_;
  std::map<std::tuple<std::int64_t, std::int64_t, int>, ProbeRow> cache_;
  ProbeResult report_;
};

}  // namespace mgs::core
