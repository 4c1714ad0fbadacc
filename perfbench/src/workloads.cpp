/// The four benchmark workloads. Each drives the library only through its
/// public unified API (ScanContext, executor factories / executor_for,
/// ScanExecutor::prepare + run) and checks every output against the serial
/// reference outside the timed interval.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <type_traits>

#include "bench.hpp"
#include "mgs/baselines/reference.hpp"
#include "mgs/obs/critical_path.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/util/random.hpp"

namespace perfbench {

namespace {

namespace obs = mgs::obs;
namespace sim = mgs::sim;
namespace topo = mgs::topo;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every pool worker included), ms.
double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

constexpr std::int64_t kPow(int log2) { return std::int64_t{1} << log2; }

/// Relative tolerance of the float-plus oracle: the library sums in a
/// blocked tree order, the reference serially, so the two differ by
/// rounding. Everything else (integers, max, min) must match exactly.
constexpr double kRelTolF32 = 1e-3;
constexpr double kRelTolF64 = 1e-9;

/// Counter-based draw: the i-th uniform of stream `stream` under `seed`,
/// independent of how many draws came before (streams are replayable).
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  mgs::util::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL ^
                            (stream << 40) ^ (i * 0xd1b54a32d192ed03ULL));
  rng.next();
  return rng.next();
}

double uniform(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return static_cast<double>(draw(seed, stream, i) >> 11) * 0x1.0p-53;
}

// ------------------------------------------------------------- inputs

/// One seeded input buffer and one output buffer per element type.
class Buffers {
 public:
  template <typename T>
  std::vector<T>& in() { return pick<T>(in_i32_, in_i64_, in_f32_, in_f64_); }
  template <typename T>
  std::vector<T>& out() {
    return pick<T>(out_i32_, out_i64_, out_f32_, out_f64_);
  }

  /// Fill the input of type T with `count` seeded values: integers small
  /// enough that no prefix sum overflows, floats in [0, 1).
  template <typename T>
  void generate(std::int64_t count, std::uint64_t seed) {
    auto& v = in<T>();
    v.resize(static_cast<std::size_t>(count));
    mgs::util::SplitMix64 rng(seed ^ (sizeof(T) * 0x51ed270b27f3a1ULL) ^
                              (std::is_floating_point_v<T> ? 0xf1 : 0x17));
    for (T& x : v) {
      if constexpr (std::is_floating_point_v<T>) {
        x = static_cast<T>(static_cast<double>(rng.next() >> 11) * 0x1.0p-53);
      } else {
        x = static_cast<T>(static_cast<std::int64_t>(rng.next_below(2001)) -
                           1000);
      }
    }
    out<T>().assign(v.size(), T{});
  }

  /// FNV-1a over every input byte (the seed-controlled data, for the
  /// stream descriptions).
  std::uint64_t checksum() {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const auto& v) {
      const auto* p = reinterpret_cast<const unsigned char*>(v.data());
      for (std::size_t i = 0; i < v.size() * sizeof(v[0]); ++i) {
        h = (h ^ p[i]) * 0x100000001b3ULL;
      }
    };
    mix(in_i32_);
    mix(in_i64_);
    mix(in_f32_);
    mix(in_f64_);
    return h;
  }

 private:
  template <typename T, typename A, typename B, typename C, typename D>
  static std::vector<T>& pick(A& a, B& b, C& c, D& d) {
    if constexpr (std::is_same_v<T, std::int32_t>) return a;
    else if constexpr (std::is_same_v<T, std::int64_t>) return b;
    else if constexpr (std::is_same_v<T, float>) return c;
    else if constexpr (std::is_same_v<T, double>) return d;
    else static_assert(sizeof(T) == 0, "unsupported element type");
  }

  std::vector<std::int32_t> in_i32_, out_i32_;
  std::vector<std::int64_t> in_i64_, out_i64_;
  std::vector<float> in_f32_, out_f32_;
  std::vector<double> in_f64_, out_f64_;
};

/// Compare `got` with the serial reference; "" when it matches.
template <typename T, typename Op>
std::string check_output(std::span<const T> in, std::span<const T> got,
                         std::int64_t n, std::int64_t g, Op op) {
  const auto want = mgs::baselines::reference_batch_scan<T, Op>(
      in, n, g, core::ScanKind::kInclusive, op);
  constexpr bool approx =
      std::is_floating_point_v<T> && std::is_same_v<Op, core::Plus<T>>;
  for (std::size_t i = 0; i < want.size(); ++i) {
    bool ok = got[i] == want[i];
    if constexpr (approx) {
      const double tol = std::is_same_v<T, float> ? kRelTolF32 : kRelTolF64;
      const double w = static_cast<double>(want[i]);
      ok = std::abs(static_cast<double>(got[i]) - w) <=
           tol * std::max(1.0, std::abs(w));
    }
    if (!ok) {
      char msg[160];
      std::snprintf(msg, sizeof msg, "output mismatch at %zu: got %.17g want %.17g",
                    i, static_cast<double>(got[i]),
                    static_cast<double>(want[i]));
      return msg;
    }
  }
  return {};
}

// ------------------------------------------------------------- one call

/// What a call scans, and the plan key to probe before prepare().
struct CallSpec {
  std::string key;
  std::int64_t n = 0;
  std::int64_t g = 0;
  core::DType dtype = core::DType::kI32;
  core::OpTag op = core::OpTag::kPlus;
  std::optional<core::PlanKey> probe;
};

core::PlanKey plan_key(const core::ScanContext& ctx, const CallSpec& s,
                       int gpus_per_problem) {
  return core::PlanKey{ctx.cluster().config().gpu.name, s.n, s.g, s.dtype,
                       s.op, false, gpus_per_problem};
}

LayerSample sample_session(const obs::TraceSession& ts) {
  LayerSample s;
  for (const obs::MetricValue& m : ts.metrics().snapshot()) {
    auto label = [&m](const char* key) -> std::string {
      for (const auto& [k, v] : m.labels) {
        if (k == key) return v;
      }
      return {};
    };
    if (m.name == "kernel_launches_total") s.launches += m.value;
    else if (m.name == "kernel_bytes") s.kernel_bytes += m.value;
    else if (m.name == "transfers_total") s.transfers += m.value;
    else if (m.name == "mpi_ops_total") s.mpi_ops += m.value;
    else if (m.name == "transfer_bytes" && label("kind") == "p2p")
      s.p2p_bytes += m.value;
    else if (m.name == "transfer_bytes" && label("kind") == "host-staged")
      s.host_staged_bytes += m.value;
  }
  const std::vector<obs::SpanRecord> spans = ts.spans();
  s.spans = static_cast<double>(spans.size());
  const obs::CriticalPathReport cp = obs::analyze_last_run(spans);
  s.compute_s = cp.by_category[obs::Category::kCompute];
  s.p2p_s = cp.by_category[obs::Category::kP2P];
  s.host_staged_s = cp.by_category[obs::Category::kHostStaged];
  s.mpi_s = cp.by_category[obs::Category::kMpi];
  s.idle_s = cp.by_category[obs::Category::kIdle];
  s.critical_s = cp.total_seconds;
  return s;
}

/// Fold RunResult::breakdown and the fault report into the record.
void fold_result(const core::RunResult& r, CallRecord& rec) {
  rec.modeled_s = r.seconds;
  for (const auto& [phase, seconds] : r.breakdown.entries()) {
    if (phase.rfind("Stage1", 0) == 0) rec.stage1_s += seconds;
    else if (phase == "Stage3") rec.stage3_s += seconds;
    else if (phase == "Recovery") rec.recovery_s += seconds;
    else rec.stage2_comm_s += seconds;  // Stage 2 and the traffic around it
  }
  rec.retries = r.faults.counters.retries;
  rec.retry_s = r.faults.counters.retry_seconds;
  rec.resumed = !r.faults.resumed_stages.empty();
  rec.degraded = r.faults.degraded;
}

/// One timed call: get_executor() (executor_for, or a prepared executor),
/// an explicit plan_for probe when `probe` is set, prepare(), run() --
/// under a fresh TraceSession when `traced`. The oracle runs afterwards,
/// outside the timed interval, unless `check` is off (set-up warm-up
/// calls). Typed errors are recorded, not rethrown.
template <typename GetExecutor>
CallRecord execute(core::ScanContext& ctx, GetExecutor&& get_executor,
                   const CallSpec& spec, Buffers& buffers, bool traced,
                   bool check = true) {
  CallRecord rec;
  rec.key = spec.key;
  rec.elements = spec.n * spec.g;
  const auto hits0 = ctx.plan_cache_hits();
  const auto misses0 = ctx.plan_cache_misses();
  const auto allocs0 = ctx.workspace().device_allocations();
  const auto reuses0 = ctx.workspace().reuses();
  std::optional<obs::TraceSession> session;
  core::RunResult result;
  const double cpu0 = process_cpu_ms();
  const auto t0 = Clock::now();
  try {
    core::ScanExecutor& ex = get_executor();
    if (spec.probe) {
      const auto tp = Clock::now();
      const auto m0 = ctx.plan_cache_misses();
      ctx.plan_for(*spec.probe);
      rec.probe_ms = ms_since(tp);
      rec.probe_missed = ctx.plan_cache_misses() != m0;
    }
    const auto tp = Clock::now();
    ex.prepare(spec.n, spec.g);
    rec.prepare_ms = ms_since(tp);
    with_type(spec.dtype, spec.op, [&](auto t, auto) {
      using T = decltype(t);
      const auto count = static_cast<std::size_t>(rec.elements);
      const auto in = std::span<const T>(buffers.in<T>()).first(count);
      const auto out = std::span<T>(buffers.out<T>()).first(count);
      const auto tr = Clock::now();
      if (traced) session.emplace();
      result = ex.run(core::ConstTypedSpan::of(in), core::TypedSpan::of(out),
                      core::ScanKind::kInclusive);
      rec.run_ms = ms_since(tr);
    });
  } catch (const std::exception& e) {
    rec.ok = false;
    rec.error = e.what();
  }
  rec.host_ms = ms_since(t0);
  rec.cpu_ms = process_cpu_ms() - cpu0;
  if (session) {
    rec.layer = sample_session(*session);
    session.reset();
  }
  rec.plan_hits = ctx.plan_cache_hits() - hits0;
  rec.plan_misses = ctx.plan_cache_misses() - misses0;
  rec.allocations = ctx.workspace().device_allocations() - allocs0;
  rec.reuses = ctx.workspace().reuses() - reuses0;
  if (!rec.ok) return rec;
  fold_result(result, rec);
  if (!check) return rec;
  rec.error = with_type(spec.dtype, spec.op, [&](auto t, auto op) {
    using T = decltype(t);
    const auto count = static_cast<std::size_t>(rec.elements);
    return check_output<T>(std::span<const T>(buffers.in<T>()).first(count),
                           std::span<const T>(buffers.out<T>()).first(count),
                           spec.n, spec.g, op);
  });
  rec.ok = rec.error.empty();
  return rec;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string shape_name(const char* proposal, std::int64_t n, std::int64_t g,
                       core::DType d, core::OpTag o) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s n=%lld g=%lld %s/%s", proposal,
                static_cast<long long>(n), static_cast<long long>(g),
                core::to_string(d), core::to_string(o));
  return buf;
}

// ---------------------------------------------------------- mps_steady

/// Scan-MPS W=4, overlap pipeline, one shape on one warm context: the
/// kernel-bound steady state (simt launch and kernel bodies).
class MpsSteady final : public Workload {
 public:
  explicit MpsSteady(const Options& opt)
      : opt_(opt), n_(opt.small ? kPow(14) : kPow(20)) {}

  std::string name() const override { return "mps_steady"; }
  int round_length() const override { return 1; }
  int window_rounds() const override { return opt_.small ? 8 : 100; }

  void setup() override {
    ex_.reset();
    ctx_.reset();
    cluster_.reset();
    cluster_ = std::make_unique<topo::Cluster>(topo::tsubame_kfc_cluster(1));
    ctx_ = std::make_unique<core::ScanContext>(*cluster_);
    buffers_.generate<std::int32_t>(n_ * kG, opt_.seed);
    ex_ = core::make_mps_executor(
        *ctx_, kW, false, core::PipelineChoice{core::PipelineMode::kOverlap, 0});
    setup_probe_ms.clear();
    if (opt_.trace) {
      const auto t0 = Clock::now();
      ctx_->plan_for(plan_key(*ctx_, spec(), kW));
      setup_probe_ms.push_back(ms_since(t0));
    }
    const auto tp = Clock::now();
    ex_->prepare(n_, kG);
    setup_prepare_ms.assign(1, ms_since(tp));
    for (int i = 0; i < kWarmup; ++i) {
      execute(*ctx_, [&]() -> core::ScanExecutor& { return *ex_; }, spec(),
              buffers_, false, false);
    }
    setup_allocations = ctx_->workspace().device_allocations();
    setup_reuses = ctx_->workspace().reuses();
  }

  CallRecord call(std::int64_t, bool traced) override {
    return execute(*ctx_, [&]() -> core::ScanExecutor& { return *ex_; },
                   spec(), buffers_, traced);
  }

  std::vector<std::string> describe_stream(int calls) override {
    std::vector<std::string> out(static_cast<std::size_t>(calls), spec().key);
    out.push_back("inputs " + hex(buffers_.checksum()));
    return out;
  }

 private:
  static constexpr int kW = 4;
  static constexpr std::int64_t kG = 4;
  static constexpr int kWarmup = 2;

  CallSpec spec() const {
    CallSpec s;
    s.key = shape_name("Scan-MPS W=4 overlap", n_, kG, s.dtype, s.op);
    s.n = n_;
    s.g = kG;
    return s;
  }

  Options opt_;
  std::int64_t n_;
  Buffers buffers_;
  std::unique_ptr<topo::Cluster> cluster_;
  std::unique_ptr<core::ScanContext> ctx_;
  std::unique_ptr<core::ScanExecutor> ex_;
};

// -------------------------------------------------------- shape_stream

/// Zipf-skewed stream over a fixed shape catalogue, every call through
/// executor_for -> prepare -> run on one long-lived context: the planner,
/// plan cache and workspace pool under mixed traffic.
class ShapeStream final : public Workload {
 public:
  explicit ShapeStream(const Options& opt) : opt_(opt) { build_catalogue(); }

  std::string name() const override { return "shape_stream"; }
  int round_length() const override { return 1; }
  /// Long enough that the window's shape mix, and so its modeled mean,
  /// varies little between seeds.
  int window_rounds() const override { return opt_.small ? 16 : 400; }

  void setup() override {
    current_.reset();
    ctx_.reset();
    cluster_.reset();
    cluster_ = std::make_unique<topo::Cluster>(topo::tsubame_kfc_cluster(1));
    ctx_ = std::make_unique<core::ScanContext>(*cluster_);
    const std::int64_t max_elems = max_elements();
    buffers_.generate<std::int32_t>(max_elems, opt_.seed);
    buffers_.generate<std::int64_t>(max_elems, opt_.seed);
    buffers_.generate<float>(max_elems, opt_.seed);
    buffers_.generate<double>(max_elems, opt_.seed);
    setup_probe_ms.clear();
    setup_allocations = 0;
    setup_reuses = 0;
  }

  CallRecord call(std::int64_t i, bool traced) override {
    const Shape& s = catalogue_[shape_at(i)];
    const core::PlannerInput input{s.n, s.g, s.dtype, s.op};
    CallSpec spec;
    spec.n = s.n;
    spec.g = s.g;
    spec.dtype = s.dtype;
    spec.op = s.op;
    const core::PlannerChoice choice =
        core::choose_proposal(ctx_->cluster(), input);
    spec.key = shape_name(core::to_string(choice.proposal), s.n, s.g, s.dtype,
                          s.op);
    if (opt_.trace) spec.probe = plan_key(*ctx_, spec, gpus_per_problem(choice));
    return execute(
        *ctx_,
        [&]() -> core::ScanExecutor& {
          current_ = ctx_->executor_for(input);
          return *current_;
        },
        spec, buffers_, traced);
  }

  std::vector<std::string> describe_stream(int calls) override {
    std::vector<std::string> out;
    for (int i = 0; i < calls; ++i) {
      const Shape& s = catalogue_[shape_at(i)];
      out.push_back(shape_name("shape", s.n, s.g, s.dtype, s.op));
    }
    out.push_back("inputs " + hex(buffers_.checksum()));
    return out;
  }

 private:
  struct Shape {
    std::int64_t n = 0;
    std::int64_t g = 1;
    core::DType dtype = core::DType::kI32;
    core::OpTag op = core::OpTag::kPlus;
  };

  /// Zipf exponent over the catalogue ranks.
  static constexpr double kZipfS = 1.0;
  /// The catalogue is part of the workload definition, not of the seed:
  /// the seed draws the stream and the data, so runs with different seeds
  /// sample one fixed traffic mix.
  static constexpr std::uint64_t kCatalogueSeed = 0x5ca7a1091eULL;

  static int gpus_per_problem(const core::PlannerChoice& c) {
    switch (c.proposal) {
      case core::Proposal::kMps: return c.w;
      case core::Proposal::kMppc: return c.v;
      case core::Proposal::kMultiNode: return c.m * c.w;
      case core::Proposal::kSingleGpu: break;
    }
    return 1;
  }

  std::int64_t max_elements() const {
    std::int64_t m = 0;
    for (const Shape& s : catalogue_) m = std::max(m, s.n * s.g);
    return m;
  }

  /// Half single problems (g = 1, routed to Scan-SP), half batches
  /// (routed to Scan-MP-PC); n from 2^13 to 2^20 with n * g <= 2^20. dtype
  /// and op are drawn per shape; (n, g, dtype, op) are distinct.
  void build_catalogue() {
    const int shift = opt_.small ? 6 : 0;  // self-test: 64x smaller
    const std::vector<std::pair<int, int>> singles = {
        {13, 0}, {14, 0}, {15, 0}, {16, 0}, {17, 0}, {18, 0},
        {19, 0}, {20, 0}, {14, 0}, {16, 0}, {18, 0}, {20, 0}};
    const std::vector<std::pair<int, int>> batches = {
        {13, 7}, {14, 6}, {15, 5}, {16, 4}, {17, 3}, {13, 5},
        {14, 4}, {15, 3}, {16, 2}, {13, 3}, {15, 4}, {17, 2}};
    const core::DType dtypes[] = {core::DType::kI32, core::DType::kI64,
                                  core::DType::kF32, core::DType::kF64};
    const core::OpTag ops[] = {core::OpTag::kPlus, core::OpTag::kMax,
                               core::OpTag::kMin};
    std::uint64_t k = 0;
    auto add = [&](int n_log2, int g_log2) {
      Shape s;
      s.n = kPow(n_log2 - shift);
      s.g = kPow(g_log2);
      for (;;) {
        s.dtype = dtypes[draw(kCatalogueSeed, 1, k) % 4];
        s.op = ops[draw(kCatalogueSeed, 2, k++) % 3];
        const bool dup = std::any_of(
            catalogue_.begin(), catalogue_.end(), [&](const Shape& o) {
              return o.n == s.n && o.g == s.g && o.dtype == s.dtype &&
                     o.op == s.op;
            });
        if (!dup) break;
      }
      catalogue_.push_back(s);
    };
    for (std::size_t i = 0; i < singles.size(); ++i) {
      add(singles[i].first, singles[i].second);
      add(batches[i].first, batches[i].second);
    }
    // Popularity rank -> catalogue entry: a fixed shuffle, so neither
    // singles nor batches own the head of the distribution.
    rank_to_shape_.resize(catalogue_.size());
    for (std::size_t i = 0; i < rank_to_shape_.size(); ++i) rank_to_shape_[i] = i;
    for (std::size_t i = rank_to_shape_.size(); i > 1; --i) {
      std::swap(rank_to_shape_[i - 1],
                rank_to_shape_[draw(kCatalogueSeed, 3, i) % i]);
    }
    double total = 0;
    for (std::size_t r = 0; r < catalogue_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t shape_at(std::int64_t i) const {
    const double u = uniform(opt_.seed, 4, static_cast<std::uint64_t>(i));
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return rank_to_shape_[rank];
  }

  Options opt_;
  std::vector<Shape> catalogue_;
  std::vector<std::size_t> rank_to_shape_;
  std::vector<double> cdf_;
  Buffers buffers_;
  std::unique_ptr<topo::Cluster> cluster_;
  std::unique_ptr<core::ScanContext> ctx_;
  std::unique_ptr<core::ScanExecutor> current_;
};

// ---------------------------------------------------------- comm_batch

/// Twelve prepared executors on a warm two-node context -- Scan-MPS W=8
/// (host-staged across both PCIe networks) and multi-node Scan-MPS
/// M=2 x W=4 (MPI), each sync and overlap, at three n with n * g fixed --
/// called once each per round in a seeded order: the communication-bound
/// workload, with both Scan-MPS schedules side by side.
class CommBatch final : public Workload {
 public:
  explicit CommBatch(const Options& opt)
      : opt_(opt), total_(opt.small ? kPow(16) : kPow(20)) {}

  std::string name() const override { return "comm_batch"; }
  int round_length() const override { return kSlots; }
  int window_rounds() const override { return opt_.small ? 2 : 8; }

  void setup() override {
    slots_.clear();
    ctx_.reset();
    cluster_.reset();
    cluster_ = std::make_unique<topo::Cluster>(topo::tsubame_kfc_cluster(2));
    ctx_ = std::make_unique<core::ScanContext>(*cluster_);
    buffers_.generate<std::int32_t>(total_, opt_.seed);
    setup_probe_ms.clear();
    setup_prepare_ms.clear();
    for (const int n_log2 : {13, 14, 15}) {
      for (const auto mode :
           {core::PipelineMode::kSync, core::PipelineMode::kOverlap}) {
        for (const bool multinode : {false, true}) {
          Slot slot;
          const core::PipelineChoice pipe{mode, 0};
          const char* sched = mode == core::PipelineMode::kSync ? "sync" : "overlap";
          slot.spec.n = kPow(n_log2);
          slot.spec.g = total_ / slot.spec.n;
          slot.spec.key = shape_name(
              (std::string(multinode ? "Scan-MPS-multinode M=2xW=4 "
                                     : "Scan-MPS W=8 ") + sched).c_str(),
              slot.spec.n, slot.spec.g, slot.spec.dtype, slot.spec.op);
          slot.ex = multinode ? core::make_multinode_executor(*ctx_, 2, 4, pipe)
                              : core::make_mps_executor(*ctx_, 8, false, pipe);
          if (opt_.trace) {
            const auto t0 = Clock::now();
            const auto m0 = ctx_->plan_cache_misses();
            ctx_->plan_for(plan_key(*ctx_, slot.spec, kGpus));
            if (ctx_->plan_cache_misses() != m0) {
              setup_probe_ms.push_back(ms_since(t0));
            }
          }
          const auto tp = Clock::now();
          slot.ex->prepare(slot.spec.n, slot.spec.g);
          setup_prepare_ms.push_back(ms_since(tp));
          slots_.push_back(std::move(slot));
        }
      }
    }
    for (std::size_t s = 0; s < slots_.size(); ++s) run_slot(s, false, false);
    setup_allocations = ctx_->workspace().device_allocations();
    setup_reuses = ctx_->workspace().reuses();
  }

  CallRecord call(std::int64_t i, bool traced) override {
    return run_slot(slot_at(i), traced);
  }

  std::vector<std::string> describe_stream(int calls) override {
    std::vector<std::string> out;
    for (int i = 0; i < calls; ++i) out.push_back(slots_[slot_at(i)].spec.key);
    out.push_back("inputs " + hex(buffers_.checksum()));
    return out;
  }

 private:
  static constexpr int kSlots = 12;
  static constexpr int kGpus = 8;  ///< GPUs per problem: W=8 and 2 x 4 ranks

  struct Slot {
    CallSpec spec;
    std::unique_ptr<core::ScanExecutor> ex;
  };

  CallRecord run_slot(std::size_t s, bool traced, bool check = true) {
    return execute(*ctx_, [&]() -> core::ScanExecutor& { return *slots_[s].ex; },
                   slots_[s].spec, buffers_, traced, check);
  }

  /// Each round calls every slot once, in a per-round seeded order.
  std::size_t slot_at(std::int64_t i) const {
    const auto round = static_cast<std::uint64_t>(i / kSlots);
    std::size_t order[kSlots];
    for (int k = 0; k < kSlots; ++k) order[k] = static_cast<std::size_t>(k);
    for (int k = kSlots; k > 1; --k) {
      std::swap(order[k - 1], order[draw(opt_.seed, 5, round * kSlots + k) % k]);
    }
    return order[i % kSlots];
  }

  Options opt_;
  std::int64_t total_;
  Buffers buffers_;
  std::unique_ptr<topo::Cluster> cluster_;
  std::unique_ptr<core::ScanContext> ctx_;
  std::vector<Slot> slots_;
};

// ------------------------------------------------------- fault_recovery

/// Episodes of a few calls, each on a fresh cluster + FaultInjector +
/// context with a seeded plan (transient and corruption probability on
/// every link, one straggler), alternating Scan-MPS W=4 -- which also
/// loses one device at a seeded instant inside its first call and resumes
/// -- with Scan-MP-PC (no mid-run death: its restart path under-reports
/// modeled time). Exercises retries, checksum repair and resume.
class FaultRecovery final : public Workload {
 public:
  explicit FaultRecovery(const Options& opt)
      : opt_(opt), n_(opt.small ? kPow(12) : kPow(18)) {
    for (int e = 0; e < kEpisodes; ++e) episodes_.push_back(make_plan(e));
  }

  std::string name() const override { return "fault_recovery"; }
  int round_length() const override { return 2 * kCallsPerEpisode; }
  /// One full cycle of the episode catalogue.
  int window_rounds() const override {
    return opt_.small ? 3 : kEpisodes / 2;
  }

  void setup() override {
    live_.reset();
    buffers_.generate<std::int32_t>(n_ * kG, opt_.seed);
    setup_probe_ms.clear();
    setup_allocations = 0;
    setup_reuses = 0;
  }

  CallRecord call(std::int64_t i, bool traced) override {
    const std::int64_t episode = i / kCallsPerEpisode;
    const int e = static_cast<int>(episode % kEpisodes);
    const int j = static_cast<int>(i % kCallsPerEpisode);
    if (j == 0 || !live_) start_episode(e);
    CallSpec spec;
    spec.n = n_;
    spec.g = kG;
    spec.key = "episode " + std::to_string(e) + " call " + std::to_string(j) +
               " " + episodes_[static_cast<std::size_t>(e)].proposal;
    if (opt_.trace && j == 0) spec.probe = plan_key(*live_->ctx, spec, kW);
    return execute(*live_->ctx,
                   [&]() -> core::ScanExecutor& { return *live_->ex; }, spec,
                   buffers_, traced);
  }

  std::vector<std::string> describe_stream(int calls) override {
    std::vector<std::string> out;
    for (int i = 0; i < calls; ++i) {
      const auto& ep = episodes_[static_cast<std::size_t>(
          (i / kCallsPerEpisode) % kEpisodes)];
      out.push_back(ep.proposal + " [" + ep.spec + "] call " +
                    std::to_string(i % kCallsPerEpisode));
    }
    out.push_back("inputs " + hex(buffers_.checksum()));
    return out;
  }

 private:
  /// Distinct seeded episode plans, cycled. Many, so the window's modeled
  /// mean varies little between seeds; an odd number of two-episode
  /// rounds per cycle, so alternating traced rounds cover every plan.
  static constexpr int kEpisodes = 30;
  static constexpr int kCallsPerEpisode = 3;
  static constexpr int kW = 4;  ///< Scan-MPS W and Scan-MP-PC V
  static constexpr std::int64_t kG = 8;

  struct EpisodePlan {
    std::string proposal;
    std::string spec;  ///< sim::parse_fault_plan grammar
  };

  /// Fresh state per episode; members destroyed executor first, injector
  /// last (the cluster borrows it).
  struct Live {
    std::unique_ptr<sim::FaultInjector> injector;
    std::unique_ptr<topo::Cluster> cluster;
    std::unique_ptr<core::ScanContext> ctx;
    std::unique_ptr<core::ScanExecutor> ex;
  };

  EpisodePlan make_plan(int e) const {
    const auto u = [&](int field) {
      return uniform(opt_.seed, 6, static_cast<std::uint64_t>(e * 16 + field));
    };
    const bool mps = e % 2 == 0;
    // Straggler on a GPU the placement uses (Scan-MPS: GPUs 0-3 of
    // network 0; Scan-MP-PC: all eight).
    const int straggler = static_cast<int>(u(2) * (mps ? 4 : 8));
    char buf[256];
    int len = std::snprintf(
        buf, sizeof buf,
        "transient:prob=%.4f;corrupt:prob=%.4f;straggler:dev=%d,factor=%.2f",
        0.01 + 0.02 * u(0), 0.01 + 0.02 * u(1), straggler, 1.5 + 1.5 * u(3));
    if (mps) {
      // One death inside the first call (healthy call ~82 us modeled).
      const int dead = (straggler + 1 + static_cast<int>(u(4) * 3)) % 4;
      const double at_us = opt_.small ? 1.0 + 3.0 * u(5) : 10.0 + 50.0 * u(5);
      std::snprintf(buf + len, sizeof buf - static_cast<std::size_t>(len),
                    ";device-down:dev=%d,at=%.3e", dead, at_us * 1e-6);
    }
    return EpisodePlan{mps ? "Scan-MPS W=4" : "Scan-MP-PC", buf};
  }

  void start_episode(int e) {
    live_.reset();
    live_ = std::make_unique<Live>();
    live_->injector = std::make_unique<sim::FaultInjector>(
        sim::parse_fault_plan(episodes_[static_cast<std::size_t>(e)].spec));
    live_->cluster =
        std::make_unique<topo::Cluster>(topo::tsubame_kfc_cluster(1));
    live_->cluster->set_fault_injector(live_->injector.get());
    live_->ctx = std::make_unique<core::ScanContext>(*live_->cluster);
    live_->ex = e % 2 == 0 ? core::make_mps_executor(*live_->ctx, kW)
                           : core::make_mppc_executor(*live_->ctx);
  }

  Options opt_;
  std::int64_t n_;
  std::vector<EpisodePlan> episodes_;
  Buffers buffers_;
  std::unique_ptr<Live> live_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "mps_steady", "shape_stream", "comm_batch", "fault_recovery"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "mps_steady") return std::make_unique<MpsSteady>(opt);
  if (opt.workload == "shape_stream") return std::make_unique<ShapeStream>(opt);
  if (opt.workload == "comm_batch") return std::make_unique<CommBatch>(opt);
  if (opt.workload == "fault_recovery") {
    return std::make_unique<FaultRecovery>(opt);
  }
  return nullptr;
}

}  // namespace perfbench
