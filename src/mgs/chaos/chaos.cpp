#include "mgs/chaos/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "mgs/baselines/reference.hpp"
#include "mgs/core/executor.hpp"
#include "mgs/core/executor_registry.hpp"
#include "mgs/core/segmented_context.hpp"
#include "mgs/msg/comm.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/sim/fault.hpp"
#include "mgs/topo/topology.hpp"
#include "mgs/topo/transfer.hpp"
#include "mgs/util/check.hpp"
#include "mgs/util/random.hpp"

namespace mgs::chaos {

namespace {

// ------------------------------------------------------------ serialization

const char* to_string(core::PipelineMode m) {
  switch (m) {
    case core::PipelineMode::kSync: return "sync";
    case core::PipelineMode::kOverlap: return "overlap";
    default: return "auto";
  }
}

core::PipelineMode parse_pipeline(const std::string& s) {
  if (s == "auto") return core::PipelineMode::kAuto;
  if (s == "sync") return core::PipelineMode::kSync;
  if (s == "overlap") return core::PipelineMode::kOverlap;
  throw util::Error("chaos: unknown pipeline mode '" + s + "'");
}

core::ScanKind parse_kind(const std::string& s) {
  if (s == "inclusive") return core::ScanKind::kInclusive;
  if (s == "exclusive") return core::ScanKind::kExclusive;
  throw util::Error("chaos: unknown scan kind '" + s + "'");
}

// --------------------------------------------------------------- the runner

/// Everything one execution of a scenario produced, in comparable form.
struct RunOutcome {
  bool threw = false;
  std::string error;  ///< what() when threw
  std::vector<unsigned char> bits;  ///< output bytes when !threw
  bool reference_match = false;
  core::RunResult result;
  std::size_t recovery_spans = 0;  ///< "Recovery" kStage spans recorded
  std::string kernel_overlap;      ///< first overlapping kernel pair, if any
};

/// The first two kernel spans that overlap on one device, described; empty
/// when every device runs its kernels one after another (a device's
/// compute clock is its compute stream's queue).
std::string first_kernel_overlap(const std::vector<obs::SpanRecord>& spans) {
  std::vector<const obs::SpanRecord*> kernels;
  for (const auto& sp : spans) {
    if (sp.kind == obs::SpanKind::kKernel) kernels.push_back(&sp);
  }
  std::stable_sort(kernels.begin(), kernels.end(), [](auto* x, auto* y) {
    return std::pair(x->device, x->start_seconds) <
           std::pair(y->device, y->start_seconds);
  });
  for (std::size_t i = 1; i < kernels.size(); ++i) {
    const obs::SpanRecord& prev = *kernels[i - 1];
    const obs::SpanRecord& next = *kernels[i];
    if (next.device == prev.device && next.start_seconds < prev.end_seconds) {
      std::ostringstream os;
      os << "device " << next.device << ": " << next.name << " starts at "
         << next.start_seconds << " inside " << prev.name << " ["
         << prev.start_seconds << ", " << prev.end_seconds << ")";
      return os.str();
    }
  }
  return {};
}

/// Deterministic input: small-magnitude values (|x| < 7) keep float
/// partial sums exactly representable, so scans are association-free and
/// the bit-identity invariant holds for every dtype (test_dtype's trick).
template <typename T>
std::vector<T> scenario_data(const Scenario& s) {
  const auto raw = util::random_i32(
      static_cast<std::size_t>(s.n * s.g),
      s.seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(s.index + 1)));
  std::vector<T> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = static_cast<T>(raw[i] % 7);
  }
  return out;
}

/// Deterministic segment heads for a segmented scenario: an independent
/// stream from the data values, ~1/16 head probability (segments average
/// a few dozen elements, so every sampled shape sees multi-segment and
/// multi-wave traffic).
template <typename T>
std::vector<T> scenario_flags(const Scenario& s) {
  const auto raw = util::random_i32(
      static_cast<std::size_t>(s.n * s.g),
      s.seed ^ 0xd6e8feb86659fd93ull ^
          (0x94d049bb133111ebull * static_cast<std::uint64_t>(s.index + 1)));
  std::vector<T> flags(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    flags[i] = (raw[i] & 15) == 0 ? T{1} : T{0};
  }
  return flags;
}

/// Serial segmented reference, mirroring SegmentedScan's head convention:
/// element i restarts when it opens a sequence (i % n == 0) or its flag
/// is set; exclusive heads yield Op::identity(), everything else the
/// inclusive value of the left neighbor.
template <typename T, typename Op>
std::vector<T> reference_segmented(const std::vector<T>& values,
                                   const std::vector<T>& flags,
                                   std::int64_t n, core::ScanKind kind) {
  const auto total = static_cast<std::int64_t>(values.size());
  std::vector<T> incl(values.size());
  T running = Op::identity();
  for (std::int64_t i = 0; i < total; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const bool head = i % n == 0 || flags[u] != T{0};
    running = head ? values[u] : Op{}(running, values[u]);
    incl[u] = running;
  }
  if (kind == core::ScanKind::kInclusive) return incl;
  std::vector<T> excl(values.size());
  for (std::int64_t i = 0; i < total; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const bool head = i % n == 0 || flags[u] != T{0};
    excl[u] = head ? Op::identity() : incl[u - 1];
  }
  return excl;
}

/// The executor must run the scenario's own cell: a replay routed to
/// another (dtype, op) would report a pass it never earned.
void require_cell(const core::ScanExecutor& ex, const Scenario& s) {
  MGS_CHECK(ex.dtype() == s.dtype && ex.op() == s.op,
            "chaos: " + to_string(s) + " ran on the " +
                core::to_string(ex.dtype()) + "/" + core::to_string(ex.op()) +
                " cell");
}

template <typename T, typename Op>
RunOutcome run_typed(const Scenario& s) {
  RunOutcome o;
  auto cluster = topo::tsubame_kfc_cluster(s.nodes);
  std::unique_ptr<sim::FaultInjector> fi;
  if (!s.faults.empty()) {
    fi = std::make_unique<sim::FaultInjector>(sim::parse_fault_plan(s.faults));
    cluster.set_fault_injector(fi.get());
  }
  obs::TraceSession ts;
  core::ScanContext ctx(cluster);
  core::ExecutorParams p;
  p.w = s.w;
  p.y = s.y;
  p.v = s.v;
  p.m = s.m;
  p.pipeline = s.pipeline;
  p.waves = s.waves;
  p.dtype = *core::dtype_of_v<T>;
  p.op = *core::op_tag_of_v<Op>;
  const auto data = scenario_data<T>(s);
  std::vector<T> out(data.size());
  std::vector<T> ref;
  try {
    if (s.segmented) {
      const auto flags = scenario_flags<T>(s);
      core::SegmentedScan<T, Op> seg(ctx, s.executor, p);
      require_cell(seg.executor(), s);
      seg.prepare(s.n, s.g);
      o.result = seg.run(std::span<const T>(data), std::span<const T>(flags),
                         std::span<T>(out), s.kind);
      ref = reference_segmented<T, Op>(data, flags, s.n, s.kind);
    } else {
      auto ex = core::make_executor(s.executor, ctx, p);
      require_cell(*ex, s);
      ex->prepare(s.n, s.g);
      o.result = ex->run(std::span<const T>(data), std::span<T>(out), s.kind);
      ref = baselines::reference_batch_scan<T, Op>(data, s.n, s.g, s.kind);
    }
  } catch (const std::exception& e) {
    o.threw = true;
    o.error = e.what();
  }
  const auto spans = ts.spans();
  o.kernel_overlap = first_kernel_overlap(spans);
  if (o.threw) return o;
  for (const auto& sp : spans) {
    if (sp.kind == obs::SpanKind::kStage && sp.name == "Recovery") {
      ++o.recovery_spans;
    }
  }
  o.reference_match = (out == ref);
  o.bits.resize(out.size() * sizeof(T));
  std::memcpy(o.bits.data(), out.data(), o.bits.size());
  return o;
}

template <typename T>
RunOutcome run_with_op(const Scenario& s) {
  switch (s.op) {
    case core::OpTag::kPlus: return run_typed<T, core::Plus<T>>(s);
    case core::OpTag::kMax: return run_typed<T, core::Max<T>>(s);
    case core::OpTag::kMin: return run_typed<T, core::Min<T>>(s);
  }
  MGS_REQUIRE(false, "chaos: unhandled operator");
  return {};
}

RunOutcome run_scenario_once(const Scenario& s) {
  switch (s.dtype) {
    case core::DType::kI32: return run_with_op<std::int32_t>(s);
    case core::DType::kI64: return run_with_op<std::int64_t>(s);
    case core::DType::kU32: return run_with_op<std::uint32_t>(s);
    case core::DType::kF32: return run_with_op<float>(s);
    case core::DType::kF64: return run_with_op<double>(s);
  }
  MGS_REQUIRE(false, "chaos: unhandled dtype");
  return {};
}

std::optional<std::string> check_impl(const Scenario& s, bool* rejected) {
  const RunOutcome a = run_scenario_once(s);
  const RunOutcome b = run_scenario_once(s);

  // Invariant 4: determinism -- a fresh replay reproduces everything.
  if (a.threw != b.threw) {
    return "nondeterministic: one replay threw ('" +
           (a.threw ? a.error : b.error) + "'), the other did not";
  }
  // Invariant 6: one compute engine per device, even across a failed
  // attempt and its recovery.
  if (!a.kernel_overlap.empty()) {
    return "kernel spans overlap on one device: " + a.kernel_overlap;
  }
  if (a.threw) {
    if (a.error != b.error) {
      return "nondeterministic error: '" + a.error + "' vs '" + b.error + "'";
    }
    // Invariant 1 (healthy half): a fault-free scenario must succeed.
    if (s.faults.empty()) {
      return "healthy scenario raised: " + a.error;
    }
    // Typed rejection under injected faults is an allowed outcome
    // (fail-stop beats silent corruption).
    if (rejected != nullptr) *rejected = true;
    return std::nullopt;
  }
  if (a.bits != b.bits) return "nondeterministic output bits across replays";
  if (a.result.seconds != b.result.seconds) {
    return "nondeterministic makespan: " + std::to_string(a.result.seconds) +
           " vs " + std::to_string(b.result.seconds);
  }
  if (a.result.faults.summary() != b.result.faults.summary()) {
    return "nondeterministic fault report: '" + a.result.faults.summary() +
           "' vs '" + b.result.faults.summary() + "'";
  }

  // Invariant 1: bit-identical to the serial reference.
  if (!a.reference_match) {
    return "result differs from the serial reference (silent corruption)";
  }

  // Invariant 2: the per-stage breakdown telescopes to the makespan.
  const double sum = a.result.breakdown.total();
  const double tol = 1e-12 + 1e-9 * std::abs(a.result.seconds);
  if (std::abs(sum - a.result.seconds) > tol) {
    return "breakdown does not telescope: sum=" + std::to_string(sum) +
           " vs seconds=" + std::to_string(a.result.seconds);
  }

  // Invariant 3: FaultReport consistent with what was injected.
  const auto& f = a.result.faults;
  if (s.faults.empty()) {
    if (f.any()) return "healthy run reported faults: " + f.summary();
    if (!f.resumed_stages.empty()) {
      return "healthy run recorded resumed stages";
    }
    if (a.recovery_spans != 0) return "healthy run recorded Recovery spans";
  }
  if (!f.resumed_stages.empty() && !f.degraded) {
    return "resumed_stages non-empty but the report is not degraded";
  }

  // Invariant 5: one Recovery stage span per recorded resume.
  if (a.recovery_spans != f.resumed_stages.size()) {
    return "span mismatch: " + std::to_string(a.recovery_spans) +
           " Recovery spans vs " + std::to_string(f.resumed_stages.size()) +
           " resumed_stages entries";
  }
  return std::nullopt;
}

// -------------------------------------------------------------- the sampler

/// splitmix64: tiny, high-quality, and addressable -- state is derived
/// from (seed, index) alone, so scenario i never depends on scenario i-1.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename T>
T pick(std::uint64_t& st, std::initializer_list<T> pool) {
  return pool.begin()[splitmix64(st) % pool.size()];
}

}  // namespace

std::string to_string(const Scenario& s) {
  std::ostringstream os;
  os << "exec=" << s.executor << ";dtype=" << core::to_string(s.dtype)
     << ";op=" << core::to_string(s.op) << ";kind=" << core::to_string(s.kind)
     << ";n=" << s.n << ";g=" << s.g << ";nodes=" << s.nodes << ";w=" << s.w
     << ";y=" << s.y << ";v=" << s.v << ";m=" << s.m
     << ";pipe=" << to_string(s.pipeline) << ";waves=" << s.waves
     << ";seed=" << s.seed << ";index=" << s.index;
  // Optional keys keep pre-existing repro lines byte-identical; faults
  // stays last (its value embeds ';' and '=').
  if (s.segmented) os << ";seg=1";
  if (!s.faults.empty()) os << ";faults=" << s.faults;
  return os.str();
}

Scenario parse_scenario(const std::string& line) {
  Scenario s;
  // The faults spec embeds ';' and '=', so it must be the final key: cut
  // it off first, then the head is plain key=value pairs.
  std::string head = line;
  const auto fpos = line.find("faults=");
  if (fpos != std::string::npos &&
      (fpos == 0 || line[fpos - 1] == ';')) {
    s.faults = line.substr(fpos + 7);
    head = line.substr(0, fpos == 0 ? 0 : fpos - 1);
  }
  std::istringstream is(head);
  std::string item;
  const auto to_i64 = [](const std::string& k,
                         const std::string& v) -> std::int64_t {
    try {
      std::size_t used = 0;
      const std::int64_t x = std::stoll(v, &used);
      MGS_REQUIRE(used == v.size(), "trailing junk");
      return x;
    } catch (const std::exception&) {
      throw util::Error("chaos: bad integer for '" + k + "': '" + v + "'");
    }
  };
  while (std::getline(is, item, ';')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    MGS_REQUIRE(eq != std::string::npos,
                "chaos: expected key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "exec") s.executor = val;
    else if (key == "dtype") s.dtype = core::parse_dtype(val);
    else if (key == "op") s.op = core::parse_op(val);
    else if (key == "kind") s.kind = parse_kind(val);
    else if (key == "n") s.n = to_i64(key, val);
    else if (key == "g") s.g = to_i64(key, val);
    else if (key == "nodes") s.nodes = static_cast<int>(to_i64(key, val));
    else if (key == "w") s.w = static_cast<int>(to_i64(key, val));
    else if (key == "y") s.y = static_cast<int>(to_i64(key, val));
    else if (key == "v") s.v = static_cast<int>(to_i64(key, val));
    else if (key == "m") s.m = static_cast<int>(to_i64(key, val));
    else if (key == "pipe") s.pipeline = parse_pipeline(val);
    else if (key == "waves") s.waves = static_cast<int>(to_i64(key, val));
    else if (key == "seg") s.segmented = to_i64(key, val) != 0;
    else if (key == "seed")
      s.seed = static_cast<std::uint64_t>(to_i64(key, val));
    else if (key == "index") s.index = static_cast<int>(to_i64(key, val));
    else throw util::Error("chaos: unknown scenario key '" + key + "'");
  }
  MGS_REQUIRE(s.n > 0 && s.g > 0 && s.nodes > 0,
              "chaos: scenario needs positive n/g/nodes");
  // Catch proposal-name typos at parse time, not deep inside the run.
  const bool known = s.executor == "Scan-SP" || s.executor == "Scan-MPS" ||
                     s.executor == "Scan-MPS-direct" ||
                     s.executor == "Scan-MP-PC" ||
                     s.executor == "Scan-MPS-multinode";
  MGS_REQUIRE(known, "chaos: unknown executor '" + s.executor + "'");
  return s;
}

Scenario sample_scenario(std::uint64_t seed, int index) {
  std::uint64_t st =
      seed ^ (0xbf58476d1ce4e5b9ull * static_cast<std::uint64_t>(index + 1));
  splitmix64(st);  // decorrelate low-entropy (seed, index) pairs

  Scenario s;
  s.seed = seed;
  s.index = index;

  // Placement: every proposal, with shapes the tsubame node can host.
  switch (splitmix64(st) % 5) {
    case 0:
      s.executor = "Scan-SP";
      break;
    case 1:
      s.executor = "Scan-MPS";
      s.w = static_cast<int>(pick(st, {2, 4, 8}));
      break;
    case 2:
      s.executor = "Scan-MPS-direct";
      s.w = static_cast<int>(pick(st, {2, 4}));
      break;
    case 3:
      s.executor = "Scan-MP-PC";
      s.y = 2;
      s.v = static_cast<int>(pick(st, {2, 4}));
      break;
    default:
      s.executor = "Scan-MPS-multinode";
      s.m = static_cast<int>(pick(st, {1, 2}));
      s.w = static_cast<int>(pick(st, {4, 8}));
      s.nodes = s.m;
      break;
  }

  // Element space: i32 twice as often (the paper's type); every operator.
  s.dtype = pick(st, {core::DType::kI32,
                                           core::DType::kI32,
                                           core::DType::kF64});
  s.op = pick(st, {core::OpTag::kPlus, core::OpTag::kMax,
                                        core::OpTag::kMin});
  s.kind = (splitmix64(st) % 2 == 0) ? core::ScanKind::kInclusive
                                     : core::ScanKind::kExclusive;

  // Shape: all pool values divide by 16, so every sampled (w, v, m)
  // placement keeps whole per-GPU portions.
  s.n = pick(st, {256, 1024, 4096, 8256, 12288, 65536});
  s.g = pick(st, {1, 2, 3, 4, 8});

  s.pipeline = pick(st, {
                            core::PipelineMode::kAuto,
                            core::PipelineMode::kSync,
                            core::PipelineMode::kOverlap});
  s.waves = static_cast<int>(pick(st, {0, 0, 2, 4}));

  // Fault schedule: ~1/4 healthy, else one or two events plus sometimes a
  // policy override. `at` instants span "from the start" through the
  // makespan scale of the smaller shapes (runs are 1e-5..1e-3 s).
  const int total_gpus = s.nodes * 8;
  const int n_events = static_cast<int>(pick(st, {0, 1, 1, 2}));
  sim::FaultPlan plan;
  for (int e = 0; e < n_events; ++e) {
    sim::FaultEvent ev;
    ev.kind = pick(st, {
                           sim::FaultKind::kTransientTransfer,
                           sim::FaultKind::kTransientTransfer,
                           sim::FaultKind::kLinkDown,
                           sim::FaultKind::kDeviceDown,
                           sim::FaultKind::kDeviceDown,
                           sim::FaultKind::kCorruption,
                           sim::FaultKind::kStraggler});
    const int dev_a = static_cast<int>(splitmix64(st) %
                                       static_cast<std::uint64_t>(total_gpus));
    const int dev_b = static_cast<int>(splitmix64(st) %
                                       static_cast<std::uint64_t>(total_gpus));
    switch (ev.kind) {
      case sim::FaultKind::kTransientTransfer:
        if (splitmix64(st) % 2 == 0) {
          ev.op = static_cast<std::int64_t>(splitmix64(st) % 4);
          ev.count = static_cast<std::int64_t>(1 + splitmix64(st) % 2);
        } else {
          ev.probability = pick(st, {0.1, 0.5});
        }
        break;
      case sim::FaultKind::kLinkDown:
        if (dev_a == dev_b) { ev.kind = sim::FaultKind::kDeviceDown; }
        else { ev.src = dev_a; ev.dst = dev_b; }
        ev.at_seconds = pick(st, {0.0, 0.0, 1e-6, 1e-5});
        if (ev.kind == sim::FaultKind::kDeviceDown) ev.device = dev_a;
        break;
      case sim::FaultKind::kDeviceDown:
        ev.device = dev_a;
        ev.at_seconds =
            pick(st, {0.0, 1e-6, 1e-5, 1e-4});
        break;
      case sim::FaultKind::kCorruption:
        if (splitmix64(st) % 2 == 0) {
          ev.op = static_cast<std::int64_t>(splitmix64(st) % 4);
        } else {
          ev.probability = pick(st, {0.05, 0.2});
        }
        break;
      default:  // straggler
        ev.device = dev_a;
        ev.factor = pick(st, {2.0, 4.0, 8.0});
        break;
    }
    plan.events.push_back(ev);
  }
  if (!plan.events.empty() && splitmix64(st) % 4 == 0) {
    plan.max_retries = static_cast<int>(pick(st, {1, 2, 6}));
  }
  if (!plan.events.empty()) s.faults = sim::to_spec(plan);

  // ~1/8 of scenarios run through the SegmentedScan wrapper, so the
  // packed SegPair path sees the same fault schedules as plain scans.
  // Drawn last: earlier draws stay identical to pre-segmented campaigns.
  s.segmented = splitmix64(st) % 8 == 0;
  return s;
}

std::optional<std::string> check_scenario(const Scenario& s) {
  return check_impl(s, nullptr);
}

Scenario shrink(const Scenario& s,
                const std::function<bool(const Scenario&)>& fails,
                int max_evals) {
  int evals = 0;
  const auto still_fails = [&](const Scenario& c) {
    if (evals >= max_evals) return false;
    ++evals;
    return fails(c);
  };

  Scenario cur = s;
  bool progress = true;
  while (progress && evals < max_evals) {
    progress = false;
    const auto try_apply = [&](Scenario cand) {
      if (cand == cur) return false;
      if (!still_fails(cand)) return false;
      cur = std::move(cand);
      progress = true;
      return true;
    };

    // Drop fault events one at a time (to_spec keeps the repro pasteable).
    if (!cur.faults.empty()) {
      const sim::FaultPlan plan = sim::parse_fault_plan(cur.faults);
      for (std::size_t i = 0; i < plan.events.size(); ++i) {
        sim::FaultPlan cand = plan;
        cand.events.erase(cand.events.begin() + static_cast<std::ptrdiff_t>(i));
        Scenario c = cur;
        c.faults = cand.events.empty() ? std::string{} : sim::to_spec(cand);
        if (try_apply(std::move(c))) break;
      }
    }

    // Simplify the pipeline, then the shape, then the element space, then
    // the placement -- most-informative reductions first.
    if (cur.pipeline != core::PipelineMode::kSync) {
      Scenario c = cur;
      c.pipeline = core::PipelineMode::kSync;
      try_apply(std::move(c));
    }
    if (cur.waves != 0) {
      Scenario c = cur;
      c.waves = 0;
      try_apply(std::move(c));
    }
    for (const std::int64_t g : {std::int64_t{4}, std::int64_t{2},
                                 std::int64_t{1}}) {
      if (g < cur.g) {
        Scenario c = cur;
        c.g = g;
        if (try_apply(std::move(c))) break;
      }
    }
    for (const std::int64_t n : {std::int64_t{12288}, std::int64_t{4096},
                                 std::int64_t{1024}, std::int64_t{256}}) {
      if (n < cur.n) {
        Scenario c = cur;
        c.n = n;
        if (try_apply(std::move(c))) break;
      }
    }
    if (cur.dtype != core::DType::kI32) {
      Scenario c = cur;
      c.dtype = core::DType::kI32;
      try_apply(std::move(c));
    }
    if (cur.op != core::OpTag::kPlus) {
      Scenario c = cur;
      c.op = core::OpTag::kPlus;
      try_apply(std::move(c));
    }
    if (cur.kind != core::ScanKind::kInclusive) {
      Scenario c = cur;
      c.kind = core::ScanKind::kInclusive;
      try_apply(std::move(c));
    }
    if (cur.segmented) {
      // A failure that survives without the wrapper is a plain-scan bug.
      Scenario c = cur;
      c.segmented = false;
      try_apply(std::move(c));
    }
    if (cur.w > 2) {
      Scenario c = cur;
      c.w = cur.w / 2;
      try_apply(std::move(c));
    }
    if (cur.v > 2) {
      Scenario c = cur;
      c.v = cur.v / 2;
      try_apply(std::move(c));
    }
    if (cur.m > 1) {
      Scenario c = cur;
      c.m = 1;
      c.nodes = 1;
      try_apply(std::move(c));
    }
  }
  return cur;
}

CampaignResult run_campaign(std::uint64_t seed, int count,
                            std::ostream* log) {
  CampaignResult r;
  for (int i = 0; i < count; ++i) {
    const Scenario s = sample_scenario(seed, i);
    s.faults.empty() ? ++r.healthy : ++r.faulted;
    bool rejected = false;
    const auto v = check_impl(s, &rejected);
    if (rejected) ++r.rejected;
    ++r.total;
    if (v.has_value()) {
      const auto fails = [](const Scenario& c) {
        return check_scenario(c).has_value();
      };
      Violation viol;
      viol.scenario = s;
      viol.what = *v;
      viol.shrunk = shrink(s, fails);
      if (log != nullptr) {
        *log << "[chaos] VIOLATION at index " << i << ": " << viol.what
             << "\n[chaos]   scenario: " << to_string(viol.scenario)
             << "\n[chaos]   repro:    " << to_string(viol.shrunk) << "\n";
      }
      r.violations.push_back(std::move(viol));
    }
    if (log != nullptr && (i + 1) % 50 == 0) {
      *log << "[chaos] " << (i + 1) << "/" << count << " scenarios, "
           << r.violations.size() << " violations, " << r.rejected
           << " typed rejections\n";
    }
  }
  return r;
}

}  // namespace mgs::chaos
