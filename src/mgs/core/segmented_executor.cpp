#include <string>

#include "mgs/core/executor_impl.hpp"
#include "mgs/core/segmented_context.hpp"

namespace mgs::core {

namespace {

using detail::FactoryTable;

/// A maker over the packed representation: the table cell (T, Op) builds
/// the proposal for (SegPair<T>, SegOp<T, Op>).
template <template <typename, typename> class Maker>
struct Packed {
  template <typename T, typename Op>
  using type = Maker<SegPair<T>, SegOp<T, Op>>;
};

// The segmented twins of executor.cpp's tables, kept in their own TU so
// the two matrices compile in parallel and a binary that never builds a
// SegmentedScan never links these instantiations.
constexpr FactoryTable kSegSpTable =
    detail::make_table<Packed<detail::SpMaker>::type>();
constexpr FactoryTable kSegMpsTable =
    detail::make_table<Packed<detail::MpsMaker>::type>();
constexpr FactoryTable kSegMpsDirectTable =
    detail::make_table<Packed<detail::MpsDirectMaker>::type>();
constexpr FactoryTable kSegMppcTable =
    detail::make_table<Packed<detail::MppcMaker>::type>();
constexpr FactoryTable kSegMultinodeTable =
    detail::make_table<Packed<detail::MultinodeMaker>::type>();

static_assert(detail::table_is_dense(kSegSpTable),
              "segmented Scan-SP table has unfilled (dtype, op) cells");
static_assert(detail::table_is_dense(kSegMpsTable),
              "segmented Scan-MPS table has unfilled (dtype, op) cells");
static_assert(detail::table_is_dense(kSegMpsDirectTable),
              "segmented Scan-MPS-direct table has unfilled cells");
static_assert(detail::table_is_dense(kSegMppcTable),
              "segmented Scan-MP-PC table has unfilled (dtype, op) cells");
static_assert(detail::table_is_dense(kSegMultinodeTable),
              "segmented Scan-MPS-multinode table has unfilled cells");

const FactoryTable& segmented_table(const std::string& name) {
  if (name == "Scan-SP") return kSegSpTable;
  if (name == "Scan-MPS") return kSegMpsTable;
  if (name == "Scan-MPS-direct") return kSegMpsDirectTable;
  if (name == "Scan-MP-PC") return kSegMppcTable;
  MGS_REQUIRE(name == "Scan-MPS-multinode", "unknown executor: " + name);
  return kSegMultinodeTable;
}

}  // namespace

std::unique_ptr<ScanExecutor> make_segmented_executor(
    const std::string& name, ScanContext& ctx, const ExecutorParams& params) {
  return segmented_table(name).at(params.dtype, params.op)(ctx, params);
}

}  // namespace mgs::core
