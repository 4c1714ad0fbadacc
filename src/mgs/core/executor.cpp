#include "mgs/core/executor.hpp"

#include "mgs/core/executor_impl.hpp"

namespace mgs::core {

namespace {

// The dispatch table -- the single place where the typed data path is
// instantiated over the whole scalar (DType, OpTag) matrix
// (segmented_executor.cpp does the same for the packed pairs). Built at
// compile time; density is static_asserted so a new enumerator without a
// maker row is a build error, not a null dispatch.
constexpr detail::FactoryTable kPathTable = detail::make_table<false>();

static_assert(detail::table_is_dense(kPathTable),
              "data-path dispatch table has unfilled (dtype, op) cells");

std::unique_ptr<ScanExecutor> make(const char* name, ScanContext& ctx,
                                   const ExecutorParams& p, DType dtype,
                                   OpTag op) {
  return detail::make_placed_executor(name, ctx, p,
                                      kPathTable.at(dtype, op)());
}

}  // namespace

// The factories: the one runtime dispatch, (dtype, op) -> monomorphic
// data path under a type-free proposal executor.
std::unique_ptr<ScanExecutor> make_sp_executor(ScanContext& ctx, int device_id,
                                               DType dtype, OpTag op) {
  return make("Scan-SP", ctx, {.device = device_id}, dtype, op);
}

std::unique_ptr<ScanExecutor> make_mps_executor(ScanContext& ctx, int w,
                                                bool direct,
                                                PipelineChoice pipe,
                                                DType dtype, OpTag op) {
  return make(direct ? "Scan-MPS-direct" : "Scan-MPS", ctx,
              {.w = w, .pipeline = pipe.mode, .waves = pipe.waves}, dtype, op);
}

std::unique_ptr<ScanExecutor> make_mppc_executor(ScanContext& ctx, int y,
                                                 int v, int m,
                                                 PipelineChoice pipe,
                                                 DType dtype, OpTag op) {
  return make("Scan-MP-PC", ctx,
              {.y = y, .v = v, .m = m, .pipeline = pipe.mode,
               .waves = pipe.waves},
              dtype, op);
}

std::unique_ptr<ScanExecutor> make_multinode_executor(ScanContext& ctx, int m,
                                                      int w,
                                                      PipelineChoice pipe,
                                                      DType dtype, OpTag op) {
  return make("Scan-MPS-multinode", ctx,
              {.w = w, .m = m, .pipeline = pipe.mode, .waves = pipe.waves},
              dtype, op);
}

}  // namespace mgs::core
