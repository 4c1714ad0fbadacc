/// quickstart: the smallest end-to-end use of the library.
///
/// Builds the paper's test platform (one TSUBAME-KFC node, 8 simulated
/// K80 GPUs on 2 PCIe networks), creates a ScanContext (plan cache +
/// workspace pool), asks it for the executor the planner (Premise 4)
/// selects for the problem shape, runs the batch scan twice -- showing
/// that repeated invocations reuse the cached plan and pooled workspaces
/// -- and verifies the result against a serial reference.
///
///   $ ./quickstart [--n 1048576] [--g 8]

#include <cstdio>
#include <vector>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/api.hpp"
#include "mgs/util/cli.hpp"
#include "mgs/util/random.hpp"
#include "mgs/util/table.hpp"

using namespace mgs;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("n", "elements per problem (default 1 Mi)");
  cli.describe("g", "problems in the batch (default 8)");
  if (cli.help_requested()) {
    cli.print_help("Quickstart: tuned multi-GPU batch scan + verification.");
    return 0;
  }
  cli.reject_unknown();
  const std::int64_t n = cli.get_int("n", 1 << 20);
  const std::int64_t g = cli.get_int("g", 8);

  // 1. The machine: Table 1's node, simulated -- plus the context that
  //    amortizes plans and workspaces across every scan it serves.
  topo::Cluster cluster = topo::tsubame_kfc_cluster(/*nodes=*/1);
  core::ScanContext ctx(cluster);
  std::printf("Platform: %d x %s, %d PCIe networks\n\n",
              cluster.num_devices(), cluster.config().gpu.name.c_str(),
              cluster.config().networks_per_node);

  // 2. Planning: Premise 4 picks the proposal for this problem shape; the
  //    context returns it as a ready-to-use executor.
  const core::PlannerChoice choice =
      core::choose_proposal(cluster, {.n = n, .g = g});
  std::printf("Planner: %s (M=%d, W=%d, V=%d, Y=%d)\n  %s\n\n",
              core::to_string(choice.proposal), choice.m, choice.w, choice.v,
              choice.y, choice.rationale.c_str());
  auto executor = ctx.executor_for({n, g});

  // 3. prepare() derives the tuned plan (Premises 1-3) once and reserves
  //    each GPU's portion of the problems in device memory.
  executor->prepare(n, g);
  std::printf("Executor: %s\n\n", executor->describe().c_str());

  // 4. Run the batch scan.
  const auto data = util::random_i32(static_cast<std::size_t>(n * g), 1);
  std::vector<int> got(data.size());
  const core::RunResult result =
      executor->run(data, got, core::ScanKind::kInclusive);

  std::printf("Simulated run: %s for %s (%.2f GB/s)\n",
              util::fmt_time_us(result.seconds).c_str(),
              util::fmt_bytes(result.payload_bytes).c_str(),
              result.throughput_gbps());
  for (const auto& [phase, seconds] : result.breakdown.entries()) {
    std::printf("  %-12s %s\n", phase.c_str(),
                util::fmt_time_us(seconds).c_str());
  }

  // 5. Run it again: the plan is cached and no new device allocations are
  //    made -- the steady state a production caller lives in.
  const auto allocs_before = ctx.workspace().device_allocations();
  std::vector<int> got2(data.size());
  const core::RunResult again =
      executor->run(data, got2, core::ScanKind::kInclusive);
  std::printf(
      "\nSecond run: %s (identical: %s); new device allocations: %llu, "
      "workspace reuses so far: %llu\n",
      util::fmt_time_us(again.seconds).c_str(),
      again.seconds == result.seconds && got2 == got ? "yes" : "NO",
      static_cast<unsigned long long>(ctx.workspace().device_allocations() -
                                      allocs_before),
      static_cast<unsigned long long>(ctx.workspace().reuses()));

  // 6. Verify against the serial reference.
  const auto want = baselines::reference_batch_scan<int>(
      data, n, g, core::ScanKind::kInclusive);
  if (got != want || got2 != want) {
    std::printf("\nFAILED: scan result does not match the reference!\n");
    return 1;
  }
  std::printf("\nOK: all %lld problems match the serial reference.\n",
              static_cast<long long>(g));
  return 0;
}
