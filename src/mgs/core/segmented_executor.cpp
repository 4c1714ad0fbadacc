#include <string>

#include "mgs/core/executor_impl.hpp"
#include "mgs/core/segmented_context.hpp"

namespace mgs::core {

namespace {

// The segmented twin of executor.cpp's table: the packed (SegPair<T>,
// SegOp<T, Op>) path per cell, kept in its own TU so the two matrices
// compile in parallel and a binary that never builds a
// SegmentedScan never links these instantiations.
constexpr detail::FactoryTable kSegPathTable = detail::make_table<true>();

static_assert(detail::table_is_dense(kSegPathTable),
              "segmented data-path table has unfilled (dtype, op) cells");

}  // namespace

std::unique_ptr<ScanExecutor> make_segmented_executor(
    const std::string& name, ScanContext& ctx, const ExecutorParams& params) {
  return detail::make_placed_executor(
      name, ctx, params, kSegPathTable.at(params.dtype, params.op)());
}

}  // namespace mgs::core
