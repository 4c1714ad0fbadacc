#pragma once
/// \file api.hpp
/// Umbrella header: the complete public surface of the multi-GPU batch
/// scan library. See README.md for a quickstart and DESIGN.md for the
/// mapping between modules and the paper's sections.

#include "mgs/core/op.hpp"           // operators, ScanKind
#include "mgs/core/dtype.hpp"        // DType/OpTag matrix, TypedSpan
#include "mgs/core/reduce.hpp"       // batched reduction primitive
#include "mgs/core/plan.hpp"         // StagePlan / ScanPlan / RunResult
#include "mgs/core/tuning.hpp"       // premises, K search, autotuner
#include "mgs/core/scan_sp.hpp"      // single-GPU proposal
#include "mgs/core/scan_mps.hpp"     // problem scattering, direct + MPI
#include "mgs/core/scan_mppc.hpp"    // prioritized communications
#include "mgs/core/planner.hpp"      // Premise-4 proposal selection
#include "mgs/core/segmented.hpp"    // segmented scan extension
#include "mgs/core/segmented_context.hpp"  // segmented scan via executors
#include "mgs/core/workspace.hpp"    // per-device buffer pooling
#include "mgs/core/scan_context.hpp" // plan cache + workspace pool
#include "mgs/core/executor.hpp"     // unified proposal interface
#include "mgs/core/executor_registry.hpp"  // named executor lookup
#include "mgs/core/run_report.hpp"   // RunResult -> obs exporters bridge
#include "mgs/core/easy.hpp"         // one-call convenience scan
