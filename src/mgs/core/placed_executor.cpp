#include "mgs/core/placed_executor.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <utility>

#include "mgs/core/rows.hpp"
#include "mgs/sim/fault.hpp"

namespace mgs::core::detail {

namespace {

/// The first `count` GPUs of `node` in global-id order (network-major,
/// the same fill order the figure harnesses use).
std::vector<int> node_gpus(const topo::Cluster& cluster, int node,
                           int count) {
  const auto& cfg = cluster.config();
  MGS_REQUIRE(count >= 1 && count <= cfg.gpus_per_node(),
              "executor: W exceeds the GPUs of a node");
  std::vector<int> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(cluster.global_id(node, i / cfg.gpus_per_network,
                                    i % cfg.gpus_per_network));
  }
  return ids;
}

bool is_down(const ScanContext& ctx, int dev) {
  const sim::FaultInjector* fi = ctx.cluster().fault_injector();
  return fi != nullptr && fi->device_is_down(dev);
}

/// Latest instant any of `gpus` has reached on either engine -- the
/// cluster-wide "now" a mid-run failure is diagnosed at.
double cluster_front(topo::Cluster& cluster, const std::vector<int>& gpus) {
  double t = 0.0;
  for (int d : gpus) {
    t = std::max(t, cluster.device(d).clock().now());
    t = std::max(t, cluster.device(d).dma_clock().now());
  }
  return t;
}

/// Decide which endpoint of a failed mid-run transfer is lost and mark it
/// down in the injector. Scheduled device-down events identify the culprit
/// directly; a pure link death is attributed to the non-master endpoint
/// (fail-stop assumption -- the master must survive for anyone to make
/// progress). Returns the device marked, or -1 when no endpoint can be
/// blamed.
int blame_endpoint(sim::FaultInjector& fi, int src_dev, int dst_dev,
                   int master, double now) {
  int dead = -1;
  if (src_dev >= 0 && fi.device_down_at(src_dev, now)) {
    dead = src_dev;
  } else if (dst_dev >= 0 && fi.device_down_at(dst_dev, now)) {
    dead = dst_dev;
  } else if (src_dev >= 0 && src_dev != master) {
    dead = src_dev;
  } else if (dst_dev >= 0 && dst_dev != master) {
    dead = dst_dev;
  }
  if (dead >= 0 && !fi.device_is_down(dead)) fi.mark_device_down(dead);
  return dead;
}

/// Fold a mid-run recovery into a run's fault report, which so far only
/// reflects the prepare-time placement.
void merge_mid_run_losses(sim::FaultReport& f, const std::string& executor,
                          const std::vector<int>& lost) {
  f.degraded = true;
  for (int d : lost) {
    if (std::find(f.excluded_devices.begin(), f.excluded_devices.end(), d) ==
        f.excluded_devices.end()) {
      f.excluded_devices.push_back(d);
    }
  }
  std::string step = executor + ": lost device";
  for (int d : lost) {
    step += ' ';
    step += std::to_string(d);
  }
  if (!f.resumed_stages.empty()) {
    step += " mid-run, resumed from ";
    for (std::size_t i = 0; i < f.resumed_stages.size(); ++i) {
      if (i != 0) step += "+";
      step += f.resumed_stages[i];
    }
  } else {
    step += " mid-run (restarted on survivors)";
  }
  f.replanned.push_back(step);
  if (f.degraded_mode.empty()) f.degraded_mode = step;
}

/// Where a run goes: the value every proposal's placement step returns.
struct Placement {
  /// Participating GPUs: portions (Scan-MPS), ranks (multinode) or the
  /// groups flattened in order (Scan-MP-PC); gpus[0] is the master. A
  /// Scan-SP placement holds its one device.
  std::vector<int> gpus;
  MppcPartition part;  ///< Scan-MP-PC's groups; empty otherwise
  bool sp = false;     ///< runs Scan-SP on gpus[0]
  sim::FaultReport report;
};

/// A degraded placement: records the excluded devices and drops the
/// plan-cache entries the shrunk cluster invalidated.
Placement degraded(ScanContext& ctx, std::vector<int> dead) {
  Placement p;
  p.report.degraded = true;
  p.report.excluded_devices = std::move(dead);
  p.report.invalidated_plans += ctx.invalidate_plans(
      static_cast<int>(ctx.cluster().alive_devices().size()));
  return p;
}

/// Last resort shared by the multi-GPU proposals: when a degraded
/// placement shrinks to a single surviving device, the run collapses to
/// Scan-SP on that device (the paper's single-GPU proposal -- no
/// inter-GPU traffic to fail).
void collapse(Placement& p, int device) {
  p.sp = true;
  p.gpus = {device};
  p.part = MppcPartition{};
  p.report.degraded_mode = "Scan-SP on device " + std::to_string(device);
}

/// The type-free executor: placement, plans, describe(), the fault
/// report and the one mid-run recovery driver, over a DataPath.
class PlacedExecutor : public ScanExecutor {
 public:
  PlacedExecutor(ScanContext& ctx, std::unique_ptr<DataPath> path,
                 const char* who, PipelineChoice pipe = {})
      : ctx_(&ctx), path_(std::move(path)), who_(who), pipe_(pipe) {
    dtype_ = path_->dtype;
    op_ = path_->op;
    segmented_ = path_->segmented;
  }

  using ScanExecutor::run;  // keep the typed std::span overloads visible

  std::string describe() const final {
    std::ostringstream os;
    os << head() << " [" << to_string(dtype_) << "/" << to_string(op_)
       << (segmented_ ? "/seg" : "") << "]";
    if (plan_.has_value()) os << tail();
    if (at_.report.degraded) {
      os << " [degraded: " << at_.report.degraded_mode << "]";
    }
    return os.str();
  }

  /// Place, plan and reserve the portions' device memory for the shape; a
  /// no-op while the shape and the injector's liveness epoch are
  /// unchanged.
  void prepare(std::int64_t n, std::int64_t g) final {
    MGS_REQUIRE(n > 0 && g > 0,
                std::string(who_) + ": N and G must be positive");
    const std::uint64_t epoch = ctx_->fault_epoch();
    if (n == n_ && g == g_ && epoch == fault_epoch_) return;
    at_ = place(n, g);
    const bool groups = !at_.part.groups.empty();
    const int width = groups ? at_.part.v : static_cast<int>(at_.gpus.size());
    plan_ = ctx_->plan_for(PlanKey{ctx_->cluster().config().gpu.name, n, g,
                                   dtype_, op_, segmented_, width});
    if (!at_.sp) plan_ = apply_pipeline_choice(*plan_, pipe_);
    reserved_.clear();
    for (std::size_t grp = 0; grp < at_.part.groups.size(); ++grp) {
      for (int id : at_.part.groups[grp]) {
        reserved_.push_back(
            reserve(id, (n / width) * at_.part.g_of_group[grp]));
      }
    }
    if (!groups) {
      for (int id : at_.gpus) reserved_.push_back(reserve(id, (n / width) * g));
    }
    n_ = n;
    g_ = g;
    fault_epoch_ = epoch;
  }

  /// The recovery driver. Runs attempts until one completes; a
  /// TransferError or CommError names the lost device, and the proposal's
  /// policy continues: Scan-MPS resumes from its checkpoint, the others
  /// re-place on the survivors and restart. The kernels read `in` and
  /// write `out` where they lie; when the two overlap, `in` is read from a
  /// snapshot so that an attempt after partial output -- a restart, a
  /// later MP-PC group or multinode wave -- still sees the original input.
  RunResult run(ConstTypedSpan in, TypedSpan out, ScanKind kind) final {
    require_carrier("ConstTypedSpan", in.dtype, in.segmented, dtype_,
                    segmented_);
    require_carrier("TypedSpan", out.dtype, out.segmented, dtype_,
                    segmented_);
    MGS_REQUIRE(n_ > 0 && g_ > 0, "ScanExecutor::run before prepare()");
    MGS_REQUIRE(in.count >= n_ * g_ && out.count >= n_ * g_,
                "ScanExecutor::run: spans must hold N*G elements");
    prepare(n_, g_);  // re-place if device liveness changed since prepare()
    in.count = n_ * g_;
    if (overlaps(in.data, out.data,
                 static_cast<std::size_t>(in.count) * path_->elem_bytes)) {
      in = path_->snapshot(in);
    }
    obs::ScopedSpan run_span = trace_run();
    topo::Cluster& cluster = ctx_->cluster();
    sim::FaultInjector* fi = cluster.fault_injector();
    // The run's progress: what a resume continues from, and the transfer
    // counters of every attempt, restarted ones included.
    const std::unique_ptr<MpsProgress> ck = path_->checkpoint();
    std::vector<int> lost;
    double restarted_at = 0.0;  // where the last restart began; 0 = none
    RunResult r;
    cluster.reset_clocks();
    for (int attempt = 0;; ++attempt) {
      const DataPath::Call call{*ctx_, *plan_, in, out, n_, g_, kind};
      try {
        r = at_.sp ? PlacedExecutor::run_attempt(call, *ck)
                   : run_attempt(call, *ck);
        break;
      } catch (const topo::TransferError& e) {
        if (fi == nullptr || attempt >= attempt_bound_) throw;
        const double now = cluster_front(cluster, at_.gpus);
        const int master = at_.part.groups.empty() ? at_.gpus.front() : -1;
        const int dead =
            blame_endpoint(*fi, e.src_dev, e.dst_dev, master, now);
        if (dead < 0) throw;
        restarted_at = recover(*ck, *fi, dead, -1, now);
        lost.push_back(dead);
      } catch (const msg::CommError& e) {
        if (fi == nullptr || attempt >= attempt_bound_) throw;
        const double now = cluster_front(cluster, at_.gpus);
        const int dead = at_.gpus.at(static_cast<std::size_t>(e.failed_rank));
        if (!fi->device_is_down(dead)) fi->mark_device_down(dead);
        restarted_at = recover(*ck, *fi, dead, e.failed_rank, now);
        lost.push_back(dead);
      }
    }
    if (restarted_at > 0.0) {
      // The work the restarts threw away stays on the clock: one Restart
      // window ahead of the final attempt, so the breakdown telescopes.
      obs::open_stage("Restart", 0.0).close(restarted_at);
      sim::Breakdown b;
      b.add("Restart", restarted_at);
      b.merge(r.breakdown);
      r.breakdown = std::move(b);
      r.seconds += restarted_at;
    }
    // The placement-time degradation record, and the counters every
    // attempt banked (a Scan-SP attempt moves no data and banks none);
    // resumed stages stay whatever the attempts accumulated.
    r.faults.counters = ck->counters;
    r.faults.degraded = at_.report.degraded;
    r.faults.degraded_mode = at_.report.degraded_mode;
    r.faults.excluded_devices = at_.report.excluded_devices;
    r.faults.replanned = at_.report.replanned;
    r.faults.invalidated_plans = at_.report.invalidated_plans;
    if (!lost.empty()) merge_mid_run_losses(r.faults, name(), lost);
    if (obs::TraceSession* ts = obs::TraceSession::current()) {
      run_span.close(r.seconds);
      ts->metrics().add("run_seconds", {{"executor", name()}}, r.seconds);
      r.metrics = ts->metrics().snapshot();
    }
    return r;
  }

 protected:
  /// Where a run of G problems of N elements goes on the devices alive
  /// now. Throws util::Error for shapes the proposal cannot place.
  virtual Placement place(std::int64_t n, std::int64_t g) = 0;
  /// describe()'s opening clause: the proposal and its GPUs.
  virtual std::string head() const = 0;
  /// describe()'s clause once prepared: the shape and the plan.
  virtual std::string tail() const { return shape(*plan_); }
  std::string shape(const ScanPlan& plan) const {
    std::ostringstream os;
    os << "; n=" << n_ << " g=" << g_ << "; " << plan.describe();
    return os.str();
  }

  /// One attempt on the placement, recording its progress in `ck`. The
  /// default is the one Scan-SP body, for Scan-SP and every collapse.
  virtual RunResult run_attempt(const DataPath::Call& c, MpsProgress&) {
    return path_->scan_sp(c, at_.gpus.front());
  }
  /// Continue the run from `ck` after `dead` was lost at `now` (only when
  /// resumes_ is set). Rethrows the active error when the loss cannot be
  /// routed around.
  virtual void resume(MpsProgress&, sim::FaultInjector&, int, double) {}

  /// Device memory for one portion of `elems` elements -- input and
  /// output -- on `device`. The rows themselves stay in the caller's
  /// spans; the budget is what their device copies would occupy.
  std::shared_ptr<void> reserve(int device, std::int64_t elems) {
    return ctx_->cluster().device(device).reserve(
        2 * elems * static_cast<std::int64_t>(path_->elem_bytes));
  }

  ScanContext* ctx_;
  std::unique_ptr<DataPath> path_;
  const char* who_;  ///< error-message prefix
  PipelineChoice pipe_;
  Placement at_;
  std::optional<ScanPlan> plan_;
  /// Each portion's device-budget reservation (simt::Device::reserve), in
  /// placement order (groups flattened).
  std::vector<std::shared_ptr<void>> reserved_;
  /// The recovery policy: resume from a checkpoint, or re-place and
  /// restart; and how many mid-run losses a run survives.
  bool resumes_ = false;
  int attempt_bound_ = ctx_->cluster().num_devices();

 private:
  /// Open the kRun span for this run (simulated t = 0, i.e. the clock
  /// reset), with a kPlan child describing the placement and -- for a
  /// degraded placement -- a kFault "replan" child. Inactive (and free
  /// beyond one branch) when no TraceSession is installed.
  obs::ScopedSpan trace_run() const {
    obs::TraceSession* ts = obs::TraceSession::current();
    if (ts == nullptr) return obs::ScopedSpan{};

    obs::SpanRecord run;
    run.name = name();
    run.kind = obs::SpanKind::kRun;
    run.category = obs::Category::kOther;
    run.notes.emplace_back("n", std::to_string(n_));
    run.notes.emplace_back("g", std::to_string(g_));
    run.notes.emplace_back("dtype", to_string(dtype_));
    run.notes.emplace_back("op", to_string(op_));
    obs::ScopedSpan span(std::move(run));

    obs::SpanRecord plan;
    plan.name = "plan";
    plan.kind = obs::SpanKind::kPlan;
    plan.category = obs::Category::kOther;
    plan.notes.emplace_back("config", describe());
    ts->add_event(std::move(plan));

    if (at_.report.degraded) {
      obs::SpanRecord replan;
      replan.name = "replan";
      replan.kind = obs::SpanKind::kFault;
      replan.category = obs::Category::kOther;
      replan.notes.emplace_back("mode", at_.report.degraded_mode);
      for (const std::string& step : at_.report.replanned) {
        replan.notes.emplace_back("step", step);
      }
      ts->add_event(std::move(replan));
      ts->metrics().inc("fault_events_total", {{"kind", "replan"}});
      ts->metrics().inc("degraded_runs_total", {{"executor", name()}});
    }
    ts->metrics().inc("runs_total", {{"executor", name()},
                                     {"dtype", to_string(dtype_)},
                                     {"op", to_string(op_)}});
    return span;
  }

  /// Apply the policy after `dead` (rank `rank` on the multinode path, -1
  /// otherwise) was lost at `now`. Returns the instant a restart begins
  /// at, 0 for a resume.
  double recover(MpsProgress& ck, sim::FaultInjector& fi, int dead, int rank,
                 double now) {
    if (resumes_) {
      resume(ck, fi, dead, now);
      return 0.0;
    }
    ck.active = false;  // the next attempt starts over; its counters stay
    const std::string dead_id = std::to_string(dead);
    if (rank >= 0) {
      obs::note_fault("restart",
                      {{"executor", name()},
                       {"rank", std::to_string(rank)},
                       {"dead", dead_id}},
                      now, dead);
    } else {
      obs::note_fault("restart", {{"executor", name()}, {"dead", dead_id}},
                      now, dead);
    }
    prepare(n_, g_);  // the liveness epoch moved: re-place on survivors
    // The new placement starts where the failed attempt was cut off.
    for (int d : at_.gpus) {
      simt::Device& dev = ctx_->cluster().device(d);
      dev.clock().sync_to(now);
      dev.dma_clock().sync_to(now);
    }
    return now;
  }

  std::uint64_t fault_epoch_ = 0;  ///< liveness epoch of the placement
};

// ---------------------------------------------------------------- Scan-SP

class SpExecutor final : public PlacedExecutor {
 public:
  SpExecutor(ScanContext& ctx, std::unique_ptr<DataPath> path, int device)
      : PlacedExecutor(ctx, std::move(path), "Scan-SP executor"),
        requested_(device) {
    MGS_REQUIRE(device >= 0 && device < ctx.cluster().num_devices(),
                "Scan-SP executor: device id out of range");
    at_.gpus = {device};
    at_.sp = true;
  }

  std::string name() const override { return "Scan-SP"; }

 private:
  std::string head() const override {
    return "Scan-SP on device " + std::to_string(at_.gpus.front());
  }

  /// The requested device, or the first alive one when it is down.
  Placement place(std::int64_t, std::int64_t) override {
    Placement p;
    p.gpus = {requested_};
    p.sp = true;
    if (!is_down(*ctx_, requested_)) return p;
    const auto alive = ctx_->cluster().alive_devices();
    MGS_REQUIRE(!alive.empty(), "Scan-SP executor: no surviving device");
    collapse(p, alive.front());
    p.report.degraded = true;
    p.report.excluded_devices.push_back(requested_);
    p.report.replanned.push_back("Scan-SP: device " +
                                 std::to_string(requested_) + " -> " +
                                 std::to_string(alive.front()));
    return p;
  }

  int requested_;
};

// --------------------------------------------------- Scan-MPS (+ direct)

class MpsExecutor final : public PlacedExecutor {
 public:
  MpsExecutor(ScanContext& ctx, std::unique_ptr<DataPath> path, int w,
              bool direct, PipelineChoice pipe)
      : PlacedExecutor(ctx, std::move(path), "Scan-MPS executor", pipe),
        direct_(direct) {
    const auto& cfg = ctx.cluster().config();
    w_req_ = (w > 0) ? w
                     : (direct ? cfg.gpus_per_network : cfg.gpus_per_node());
    at_.gpus = node_gpus(ctx.cluster(), 0, w_req_);  // validates w_req_
    // Scan-MPS-direct restarts: UVA peer writes leave no checkpointable
    // intermediate on the master mid-kernel. A resume survives one loss
    // per device that can still die.
    resumes_ = !direct;
    if (resumes_) attempt_bound_ = w_req_;
  }

  std::string name() const override {
    return direct_ ? "Scan-MPS-direct" : "Scan-MPS";
  }

 private:
  std::string head() const override {
    return name() + " over " + std::to_string(at_.gpus.size()) +
           " GPUs of node 0 (master " + std::to_string(at_.gpus.front()) +
           ")";
  }

  /// Name the schedule that runs, not the one the planner asked for.
  std::string tail() const override {
    ScanPlan shown = *plan_;
    shown.pipe.overlap =
        !mps_joined(shown, static_cast<int>(at_.gpus.size()), direct_);
    return shape(shown);
  }

  /// The requested W GPUs of node 0 when all are alive; the largest
  /// surviving prefix whose size divides N otherwise (direct mode
  /// additionally keeps only GPUs sharing the new master's PCIe network,
  /// since peer writes need P2P reach).
  Placement place(std::int64_t n, std::int64_t) override {
    const auto all = node_gpus(ctx_->cluster(), 0, w_req_);
    std::vector<int> alive;
    std::vector<int> dead;
    for (int id : all) (is_down(*ctx_, id) ? dead : alive).push_back(id);
    MGS_REQUIRE(!alive.empty(),
                "Scan-MPS executor: no surviving GPU on node 0");
    Placement p;
    p.gpus = all;
    if (!dead.empty()) {
      if (direct_) {
        const int master = alive.front();
        std::erase_if(alive, [&](int id) {
          const auto link = ctx_->cluster().link_between(master, id);
          return link != topo::LinkType::kSelf && link != topo::LinkType::kP2P;
        });
      }
      int w2 = static_cast<int>(alive.size());
      while (w2 > 1 && n % w2 != 0) --w2;
      p = degraded(*ctx_, dead);
      if (w2 == 1) {
        collapse(p, alive.front());
      } else {
        p.gpus.assign(alive.begin(), alive.begin() + w2);
        p.report.degraded_mode = name() + " W=" + std::to_string(w2);
      }
      p.report.replanned.push_back(name() + ": W=" + std::to_string(w_req_) +
                                   " -> " + std::to_string(w2));
    }
    MGS_REQUIRE(p.sp || n % static_cast<std::int64_t>(p.gpus.size()) == 0,
                "Scan-MPS executor: N must be divisible by W");
    return p;
  }

  RunResult run_attempt(const DataPath::Call& c, MpsProgress& ck) override {
    return path_->scan_mps(
        c, at_.gpus, direct_ ? MpsGather::kPeerWrites : MpsGather::kCopies,
        ck);
  }

  /// Stage-granular resume: the dead device's portions remap onto the
  /// least-loaded survivors (logical W and the chunk layout stay fixed, so
  /// Stage 2 still applies the operator in ascending portion order and
  /// results stay bit-identical to the healthy run), the lost portions'
  /// rows are re-borrowed on their replacements (the H2D restage of a real
  /// system is charged to the clock), exactly the checkpoint flags whose
  /// backing buffers died regress, and the scan re-enters to continue from
  /// the last completed stage boundary instead of restarting.
  void resume(MpsProgress& ck, sim::FaultInjector& fi, int dead,
              double now) override {
    topo::Cluster& cluster = ctx_->cluster();
    std::vector<int>& gpus = at_.gpus;
    const int w = static_cast<int>(gpus.size());
    std::vector<int> portions;
    for (int i = 0; i < w; ++i) {
      if (gpus[static_cast<std::size_t>(i)] == dead) portions.push_back(i);
    }
    if (portions.empty()) throw;  // not a participant; cannot route around
    std::vector<int> pool;
    for (int id : node_gpus(cluster, 0, w_req_)) {
      if (!fi.device_is_down(id)) pool.push_back(id);
    }
    if (pool.empty()) throw;  // no survivor to resume onto
    const bool master_died = (gpus.front() == dead);

    const std::int64_t per_gpu = (n_ / w) * g_;
    const BatchLayout lay = make_layout(n_ / w, g_, plan_->s13);

    // A dead master takes the gathered aux matrix and the Stage-2 output
    // with it: everything master-resident regresses, while the survivors'
    // raw reductions (aux_local) and already-scattered prefixes
    // (prefix_local) stay valid. Reset before the per-portion pass so a
    // dead portion whose gather died with the master re-runs Stage 1 too.
    if (ck.active && master_died) {
      std::fill(ck.gathered.begin(), ck.gathered.end(), char{0});
      std::fill(ck.scanned.begin(), ck.scanned.end(), char{0});
    }

    const auto load_of = [&](int id) {
      return static_cast<int>(std::count(gpus.begin(), gpus.end(), id));
    };
    const auto& links = cluster.config().links;
    for (int i : portions) {
      const auto ii = static_cast<std::size_t>(i);
      int repl = pool.front();
      int best = load_of(repl);
      for (int id : pool) {
        const int l = load_of(id);
        if (l < best) {
          repl = id;
          best = l;
        }
      }
      gpus[ii] = repl;
      reserved_[ii] = reserve(repl, per_gpu);
      path_->move_portion(*ctx_, ck, i, repl, lay.aux_elems());
      // Charge the H2D restage to the replacement's clock -- lost time is
      // real time.
      const double restage =
          links.host_latency_us * 1e-6 +
          static_cast<double>(per_gpu) * path_->elem_bytes /
              (links.host_bandwidth_gbps * 1e9);
      sim::Clock& clock = cluster.device(repl).clock();
      clock.sync_to(now);
      clock.advance(restage);

      if (!ck.active) continue;
      bool fully_gathered = true;
      for (int v = 0; v < ck.k; ++v) {
        const auto cell = static_cast<std::size_t>(v * ck.w + i);
        ck.scattered[cell] = 0;
        if (ck.gathered[cell] == 0) fully_gathered = false;
      }
      // Ungathered cells need the reductions regenerated on the
      // replacement (pure kernels: identical values). Cells already on the
      // master keep their flags -- their data survived.
      if (!fully_gathered) ck.s1_done[ii] = 0;
    }
    if (ck.active && master_died) {
      path_->move_master(*ctx_, ck, gpus.front(), g_ * w * lay.bx, g_);
    }

    // Account the recovery window so the breakdown keeps telescoping to
    // the total, then arm the next entry instant.
    double t_resume = now;
    for (int i : portions) {
      t_resume = std::max(
          t_resume,
          cluster.device(gpus[static_cast<std::size_t>(i)]).clock().now());
    }
    std::string boundary = "Start";
    if (ck.active) {
      boundary = ck.resume_boundary();
      t_resume = std::max(t_resume, ck.last_boundary);
      auto rec = obs::open_stage("Recovery", ck.last_boundary);
      rec.close(t_resume);
      ck.partial.breakdown.add("Recovery", t_resume - ck.last_boundary);
      ck.resumes += 1;
      ck.resumed_stages.push_back(boundary);
      ck.last_boundary = t_resume;
    }
    obs::note_fault("resume",
                    {{"executor", name()},
                     {"dead", std::to_string(dead)},
                     {"boundary", boundary},
                     {"portions", std::to_string(portions.size())},
                     {"master", master_died ? "replaced" : "kept"}},
                    now, dead);
  }

  bool direct_;
  int w_req_ = 1;
};

// -------------------------------------------------------------- Scan-MP-PC

class MppcExecutor final : public PlacedExecutor {
 public:
  MppcExecutor(ScanContext& ctx, std::unique_ptr<DataPath> path, int y, int v,
               int m, PipelineChoice pipe)
      : PlacedExecutor(ctx, std::move(path), "Scan-MP-PC executor", pipe) {
    const auto& cfg = ctx.cluster().config();
    y_ = (y > 0) ? y : cfg.networks_per_node;
    v_req_ = (v > 0) ? v : cfg.gpus_per_network;
    m_ = (m > 0) ? m : 1;
    at_.part.v = v_req_;
  }

  std::string name() const override { return "Scan-MP-PC"; }

 private:
  std::string head() const override {
    std::ostringstream os;
    os << "Scan-MP-PC with Y=" << y_ << " networks/node, V=" << at_.part.v
       << " GPUs/network, M=" << m_ << " nodes";
    return os.str();
  }

  std::string tail() const override {
    return " (" + std::to_string(at_.part.groups.size()) + " groups)" +
           shape(*plan_);
  }

  /// The paper's Y x V partition when every requested GPU is alive;
  /// otherwise the groups are rebuilt from the alive GPUs of each PCIe
  /// network (any slot of a network may substitute for a dead one), with
  /// a uniform V' = min over networks, shrunk until it divides N.
  /// Networks with no survivor are dropped; a single surviving GPU
  /// collapses to Scan-SP.
  Placement place(std::int64_t n, std::int64_t g) override {
    const auto& cfg = ctx_->cluster().config();
    std::vector<std::vector<int>> nets;
    std::vector<int> dead;
    for (int node = 0; node < m_; ++node) {
      for (int net = 0; net < y_; ++net) {
        std::vector<int> ids;
        for (int s = 0; s < cfg.gpus_per_network; ++s) {
          const int id = ctx_->cluster().global_id(node, net, s);
          if (is_down(*ctx_, id)) {
            if (s < v_req_) dead.push_back(id);
          } else {
            ids.push_back(id);
          }
        }
        if (!ids.empty()) nets.push_back(std::move(ids));
      }
    }
    if (dead.empty()) {
      MGS_REQUIRE(n % v_req_ == 0,
                  "Scan-MP-PC executor: N must be divisible by V");
      return grouped(Placement{},
                     make_mppc_partition(ctx_->cluster(), y_, v_req_, g, m_));
    }
    MGS_REQUIRE(!nets.empty(), "Scan-MP-PC executor: no surviving GPU");
    std::size_t v_min = nets.front().size();
    for (const auto& ids : nets) v_min = std::min(v_min, ids.size());
    int v2 = std::min(v_req_, static_cast<int>(v_min));
    while (v2 > 1 && n % v2 != 0) --v2;

    Placement p = degraded(*ctx_, dead);
    if (nets.size() == 1 && v2 == 1) {
      collapse(p, nets.front().front());
    } else {
      p = grouped(std::move(p), make_mppc_partition(nets, v2, g));
      p.report.degraded_mode =
          "Scan-MP-PC " + std::to_string(p.part.groups.size()) +
          " groups x V=" + std::to_string(v2);
    }
    p.report.replanned.push_back(
        "Scan-MP-PC: V=" + std::to_string(v_req_) + " -> " +
        std::to_string(v2) + ", groups -> " +
        std::to_string(p.sp ? 1 : static_cast<int>(p.part.groups.size())));
    return p;
  }

  /// `p` running `part`, its groups flattened into the GPU list.
  static Placement grouped(Placement p, MppcPartition part) {
    p.gpus.clear();
    for (const auto& grp : part.groups) {
      p.gpus.insert(p.gpus.end(), grp.begin(), grp.end());
    }
    p.part = std::move(part);
    return p;
  }

  RunResult run_attempt(const DataPath::Call& c, MpsProgress& ck) override {
    return path_->scan_mppc(c, at_.part, ck);
  }

  int y_ = 1;
  int v_req_ = 1;
  int m_ = 1;
};

// --------------------------------------------------- multi-node Scan-MPS

class MultinodeExecutor final : public PlacedExecutor {
 public:
  MultinodeExecutor(ScanContext& ctx, std::unique_ptr<DataPath> path, int m,
                    int w, PipelineChoice pipe)
      : PlacedExecutor(ctx, std::move(path), "Scan-MPS-multinode executor",
                       pipe) {
    const auto& cfg = ctx.cluster().config();
    m_ = (m > 0) ? m : cfg.nodes;
    w_ = (w > 0) ? w : cfg.gpus_per_node();
    MGS_REQUIRE(m_ <= cfg.nodes,
                "Scan-MPS-multinode executor: M exceeds the cluster");
    node_gpus(ctx.cluster(), 0, w_);  // validates w_ against the node shape
  }

  std::string name() const override { return "Scan-MPS-multinode"; }

 private:
  std::string head() const override {
    return "Scan-MPS-multinode over " + std::to_string(m_) + " nodes x " +
           std::to_string(w_) + " GPUs (one MPI rank per GPU)";
  }

  /// One rank per requested GPU when all are alive; dead ranks are
  /// dropped otherwise, then surviving ranks are trimmed from the tail
  /// until the count divides N. A single survivor collapses to Scan-SP.
  Placement place(std::int64_t n, std::int64_t) override {
    std::vector<int> ids;
    std::vector<int> dead;
    for (int node = 0; node < m_; ++node) {
      for (int id : node_gpus(ctx_->cluster(), node, w_)) {
        (is_down(*ctx_, id) ? dead : ids).push_back(id);
      }
    }
    MGS_REQUIRE(!ids.empty(), "Scan-MPS-multinode executor: no surviving GPU");
    if (dead.empty()) {
      MGS_REQUIRE(n % static_cast<std::int64_t>(ids.size()) == 0,
                  "Scan-MPS-multinode executor: N must divide by M*W");
      Placement p;
      p.gpus = std::move(ids);
      return p;
    }
    const std::size_t survivors = ids.size();
    std::size_t r = survivors;
    while (r > 1 && n % static_cast<std::int64_t>(r) != 0) --r;
    ids.resize(r);
    Placement p = degraded(*ctx_, dead);
    if (r == 1) {
      collapse(p, ids.front());
    } else {
      p.gpus = std::move(ids);
      p.report.degraded_mode =
          "Scan-MPS-multinode on " + std::to_string(r) + " ranks";
    }
    p.report.replanned.push_back(
        "Scan-MPS-multinode: ranks " + std::to_string(m_ * w_) + " -> " +
        std::to_string(r) +
        (r < survivors ? " (" + std::to_string(survivors - r) +
                             " surviving ranks idled so ranks divide N)"
                       : ""));
    return p;
  }

  /// Restarts rather than resumes: a communicator needs distinct devices
  /// per rank, which a remapped portion would break.
  RunResult run_attempt(const DataPath::Call& c, MpsProgress& ck) override {
    return path_->scan_mps(c, at_.gpus, MpsGather::kMpi, ck);
  }

  int m_ = 1;
  int w_ = 1;
};

}  // namespace

std::unique_ptr<ScanExecutor> make_placed_executor(
    const std::string& name, ScanContext& ctx, const ExecutorParams& p,
    std::unique_ptr<DataPath> path) {
  const PipelineChoice pipe{p.pipeline, p.waves};
  if (name == "Scan-SP") {
    return std::make_unique<SpExecutor>(ctx, std::move(path), p.device);
  }
  if (name == "Scan-MPS" || name == "Scan-MPS-direct") {
    return std::make_unique<MpsExecutor>(ctx, std::move(path), p.w,
                                         name == "Scan-MPS-direct", pipe);
  }
  if (name == "Scan-MP-PC") {
    return std::make_unique<MppcExecutor>(ctx, std::move(path), p.y, p.v, p.m,
                                          pipe);
  }
  MGS_REQUIRE(name == "Scan-MPS-multinode", "unknown executor: " + name);
  return std::make_unique<MultinodeExecutor>(ctx, std::move(path), p.m, p.w,
                                             pipe);
}

}  // namespace mgs::core::detail
