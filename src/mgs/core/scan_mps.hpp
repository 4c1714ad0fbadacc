#pragma once
/// \file scan_mps.hpp
/// Scan-MPS: Multi-GPU Problem Scattering (Section 4.1, Figures 6-7).
/// Every problem is split across all W participating GPUs; each GPU runs
/// Stage 1 on its G portions, the chunk reductions converge on a master
/// GPU for Stage 2, and the scanned prefixes return for Stage 3. The
/// multi-node proposal (Section 4.1's multi-node paragraph) is the same
/// schedule over one MPI rank per GPU, the reductions travelling by MPI.
/// Every form scans the caller's spans where they lie.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mgs/core/kernels.hpp"
#include "mgs/core/plan.hpp"
#include "mgs/core/rows.hpp"
#include "mgs/core/workspace.hpp"
#include "mgs/msg/comm.hpp"
#include "mgs/obs/span.hpp"
#include "mgs/simt/stream.hpp"
#include "mgs/topo/transfer.hpp"

namespace mgs::core {

/// Whether Scan-MPS runs its joined schedule -- one wave, every copy on
/// the compute engine, a barrier at each stage boundary and one
/// whole-matrix Stage-2 launch -- instead of the overlapped wave pipeline.
/// The pipeline needs plan.pipe.overlap and a peer to overlap with; peer
/// writes always join (they land inside Stage 1, leaving no gather to
/// overlap).
inline bool mps_joined(const ScanPlan& plan, int w, bool peer_writes) {
  return !plan.pipe.overlap || w == 1 || peer_writes;
}

/// Stage-granular checkpoint for Scan-MPS. The scan records its progress
/// here at every stage boundary (and per gather/scatter cell), so a
/// mid-run device/link failure unwinds with the completed work intact:
/// the executor's recovery driver remaps the dead device's portions onto a
/// survivor, regresses exactly the flags whose backing state died, and
/// calls the scan again -- it continues from the last completed boundary
/// instead of restarting. Passing no checkpoint (the default) uses a
/// function-local one, which makes the first pass bit-identical to the
/// pre-checkpoint code: every guard is all-pending and every boundary
/// instant is computed from the same clock maxima as before.
///
/// MpsProgress is the type-free part -- flags, events, instants and resume
/// bookkeeping -- which the recovery driver reads and regresses without
/// knowing the element type; MpsCheckpoint<T> adds the device buffers.
struct MpsProgress {
  MpsProgress() = default;
  MpsProgress(const MpsProgress&) = delete;
  MpsProgress& operator=(const MpsProgress&) = delete;
  virtual ~MpsProgress() = default;

  bool active = false;  ///< initialized by a scan call; false when consumed
  int w = 0;
  int k = 1;  ///< waves (1 on the joined schedule)
  double t0 = 0.0;
  double last_boundary = 0.0;  ///< latest completed stage boundary
  RunResult partial;           ///< breakdown accumulated so far
  double entry_barrier = 0.0;  ///< MPI: entry-barrier dwell, charged at exit
  /// Transfer counters of every attempt of the run, aborted ones included:
  /// a scan banks its engines' counters here before it unwinds, and the
  /// recovery driver reports them whether it resumed or restarted.
  sim::FaultCounters counters;

  /// Progress flags. s1_done is per portion (size w); gathered, scanned and
  /// scattered are per (wave, device) cell v*w + d (size k*w).
  std::vector<char> s1_done;
  std::vector<char> gathered;
  std::vector<char> scanned;
  std::vector<char> scattered;

  /// Per-cell dependency events (absolute simulated times, so they stay
  /// valid across a resume).
  std::vector<simt::Event> ev_s1;
  std::vector<simt::Event> ev_gather;
  std::vector<simt::Event> ev_scatter;

  /// Resume bookkeeping, filled by the executor's recovery driver.
  int resumes = 0;
  std::vector<std::string> resumed_stages;

  /// The most advanced stage boundary the surviving state still covers
  /// (what a resume continues from), named like the stage spans.
  const char* resume_boundary() const {
    const auto any = [](const std::vector<char>& f) {
      return std::any_of(f.begin(), f.end(), [](char x) { return x != 0; });
    };
    if (any(scanned)) return "Stage2";
    if (any(gathered)) return "AuxGather";
    if (any(s1_done)) return "Stage1";
    return "Start";
  }
};

template <typename T>
struct MpsCheckpoint : MpsProgress {
  /// Device-resident partial state. aux_local holds the raw Stage-1 chunk
  /// reductions; prefix_local receives the scanned prefixes scattered
  /// back. They are separate buffers so a master death can re-gather the
  /// raw reductions -- a generic operator cannot reconstruct them from
  /// prefixes (max/min are not invertible).
  std::vector<WorkspacePool::Handle<T>> aux_local;
  std::vector<WorkspacePool::Handle<T>> prefix_local;
  WorkspacePool::Handle<T> aux_all;  ///< on the master
  WorkspacePool::Handle<T> carry;    ///< overlapped: per-row Stage-2 carry
};

/// How the chunk reductions reach the master and the scanned prefixes
/// return: explicit strided copies after Stage 1, UVA peer stores from
/// inside the Stage-1 kernel (Scan-MPS-direct; prefixes return by copy),
/// or MPI messages between one rank per GPU (the multi-node proposal).
enum class MpsGather { kCopies, kPeerWrites, kMpi };

namespace detail {

/// Stage 1 of Scan-MPS-direct for portion `d` on `dev`: the chunk
/// reductions are stored straight into the master's combined array
/// ([g][d][c]) through UVA peer access (Section 2: P2P copies are
/// asynchronous and overlap with computation). The peer writes ride the
/// P2P link pipelined behind the kernel; only the non-overlapped remainder
/// of the link time delays the pipeline.
template <typename T, typename Op>
void reduce_into_master(topo::Cluster& cluster, topo::TransferEngine& xfer,
                        simt::Device& dev, int master,
                        const simt::DeviceBuffer<T>& in,
                        simt::DeviceBuffer<T>& aux_all,
                        const BatchLayout& lay, int w, int d,
                        const StagePlan& sp, Op op) {
  simt::LaunchConfig cfg;
  cfg.name = "chunk_reduce_p2p";
  cfg.grid = {static_cast<int>(lay.bx), static_cast<int>(lay.g), 1};
  cfg.block = {sp.lx, 1, 1};
  cfg.regs_per_thread = sp.regs_per_thread();
  cfg.smem_per_block = sp.smem_bytes(sizeof(T));
  MGS_CHECK(in.size() >= lay.extent(), "chunk_reduce_p2p: input too small");
  const auto inv = in.view();
  const auto aux_view = aux_all.view();
  const std::int64_t dd = d;
  const auto t = simt::launch(dev, cfg, [=](simt::BlockCtx& ctx) {
    const std::int64_t c = ctx.block_idx().x;
    const std::int64_t gg = ctx.block_idx().y;
    const std::int64_t chunk_off = c * lay.chunk;
    const std::int64_t len =
        std::min<std::int64_t>(lay.chunk, lay.n_local - chunk_off);
    const T total =
        cascade_reduce(ctx, inv, gg * lay.pitch + chunk_off, len, sp, op);
    aux_view.store(gg * (w * lay.bx) + dd * lay.bx + c, total, ctx.stats());
  });
  if (dev.id() == master) return;
  const std::uint64_t wire_bytes =
      static_cast<std::uint64_t>(lay.g) * lay.bx * sizeof(T);
  const double wire = xfer.link_time(dev.id(), master, wire_bytes);
  const double exposed = std::max(0.0, wire - 0.5 * t.seconds);
  dev.clock().advance(exposed);
  cluster.device(master).clock().sync_to(dev.clock().now());
  if (exposed <= 0.0) return;
  if (obs::TraceSession* ts = obs::TraceSession::current()) {
    // The overlapped portion of the peer writes hides behind the kernel;
    // only the exposed tail occupies the link as a span.
    obs::SpanRecord rec;
    rec.name = "p2p_writes";
    rec.kind = obs::SpanKind::kTransfer;
    rec.category = obs::Category::kP2P;
    rec.device = master;
    rec.src_device = dev.id();
    rec.start_seconds = dev.clock().now() - exposed;
    rec.end_seconds = dev.clock().now();
    rec.bytes = wire_bytes;
    rec.notes.emplace_back("link", "p2p");
    ts->add_event(std::move(rec));
    ts->metrics().add("transfer_bytes", {{"kind", "p2p"}},
                      static_cast<double>(wire_bytes));
  }
}

}  // namespace detail

/// Scan-MPS (Section 4.1) over `gpus`, gpus[0] the master: G problems of
/// N elements in the caller's `in` and `out`, portion d of problem g
/// (elements [g*N + d*N/W, +N/W)) borrowed in place as memory of gpus[d].
/// Placement is untimed: the paper's evaluation starts with data already
/// in GPU memory. `out` may be `in` itself (an in-place scan) but must not
/// overlap it otherwise. Returns the simulated makespan across the
/// participating GPUs plus the stage breakdown. When `ws` is given, the
/// auxiliary arrays are leased from it instead of allocated per call;
/// `ck`, when given, carries the progress a resume continues from.
///
/// The one schedule: Stage 1 -> gather the chunk reductions to the master
/// -> Stage 2 on the master -> scatter the scanned prefixes back -> Stage
/// 3, over (wave, device) cells that record their progress in the
/// checkpoint, so a resume skips every cell whose data survived. The
/// gather modes differ only in the transport, which is fixed once at
/// entry: how a cell moves, where it lives in the master's combined
/// array, and which Stage-2 launcher scans it.
///
/// On the joined schedule (mps_joined) the cells are one wave, every
/// cell moves on the compute engine and every stage boundary is a barrier
/// cut on the compute front; the breakdown is Stage1 / AuxGather / Stage2
/// / AuxScatter / Stage3. Peer writes (Scan-MPS-direct: every GPU must
/// share the master's PCIe network) replace Stage1 + AuxGather with
/// Stage1+P2PWrites; MPI moves all cells in one MPI_Gather and one
/// MPI_Scatter collective, named as such.
///
/// On the overlapped schedule the batch dimension G is split into
/// plan.pipe.waves sub-batches and every dependency is a per-cell event:
/// each GPU's wave-v reductions travel to the master the moment that GPU
/// computed them (a DMA copy or an MPI_Isend, overlapping later waves'
/// Stage 1), the master scans each arriving (wave, device) column chunk --
/// carrying the running row prefix in a per-row carry buffer -- and sends
/// the slice straight back, so Stage 3 starts per GPU per wave on
/// arrival. Breakdown stages are Stage1 / Stage2+Comm / Stage3; kernels
/// and transfers of later stages may *start* inside an earlier window --
/// that is the overlap -- and the critical-path analyzer clips leaf spans
/// by time.
///
/// MPI (the multi-node proposal: Figures 13-14) runs one rank per GPU,
/// rank d on gpus[d] (gpus must be distinct), over its own communicator,
/// and brackets the stages with MPI_Barrier (the EntryBarrier and
/// ExitBarrier spans), charging both dwells to one trailing MPI_Barrier
/// entry.
///
/// Either way the master applies the operator per row in ascending device
/// order on its in-order compute engine, so results are bit-identical
/// across schedules and transports, and across healthy and resumed runs;
/// the breakdown entries are cut at the stage-span boundaries and sum to
/// result.seconds.
template <typename T, typename Op = Plus<T>>
RunResult scan_mps(topo::Cluster& cluster, const std::vector<int>& gpus,
                   std::span<const T> in, std::span<T> out, std::int64_t n,
                   std::int64_t g, const ScanPlan& plan, ScanKind kind,
                   Op op = {}, MpsGather gather = MpsGather::kCopies,
                   WorkspacePool* ws = nullptr,
                   MpsCheckpoint<T>* ck = nullptr) {
  MpsCheckpoint<T> local_ck;
  MpsCheckpoint<T>& c = ck != nullptr ? *ck : local_ck;
  plan.validate();
  const int w = static_cast<int>(gpus.size());
  MGS_REQUIRE(w > 0, "scan_mps: need at least one GPU");
  MGS_REQUIRE(n % w == 0, "scan_mps: N must be divisible by W");
  const std::int64_t n_local = n / w;
  const BatchLayout lay = make_layout(n_local, g, plan.s13, n);
  MGS_REQUIRE(lay.bx >= 1,
              "scan_mps: every GPU needs at least one chunk (Equation 2)");
  detail::require_rows<T>(in, out, n * g);
  // Portion d of every problem, viewed where it lies as memory of gpus[d]
  // (row pitch N). Read-only through `in` by contract: the kernels only
  // ever store through `out`.
  const std::span<T> src(const_cast<T*>(in.data()), in.size());
  const auto portion = [&](std::span<T> rows, int d) {
    return simt::DeviceBuffer<T>::borrow(
        rows.subspan(static_cast<std::size_t>(d * n_local),
                     static_cast<std::size_t>(lay.extent())),
        gpus[static_cast<std::size_t>(d)]);
  };
  const bool peer = gather == MpsGather::kPeerWrites;
  const bool mpi = gather == MpsGather::kMpi;
  const bool joined = mps_joined(plan, w, peer);
  const int k = joined ? 1
                       : static_cast<int>(std::clamp<std::int64_t>(
                             plan.pipe.waves, 1, g));
  const auto wave_begin = [&](int v) { return (g * v) / k; };
  const std::int64_t row_len = static_cast<std::int64_t>(w) * lay.bx;
  const sim::Engine engine =
      joined ? sim::Engine::kCompute : sim::Engine::kDma;
  const int master = gpus[0];
  simt::Device& master_dev = cluster.device(master);
  if (peer) {
    for (int d : gpus) {
      const auto link = cluster.link_between(master, d);
      MGS_REQUIRE(
          link == topo::LinkType::kSelf || link == topo::LinkType::kP2P,
          "scan_mps: peer writes need every GPU on the master's PCIe "
          "network");
    }
  }

  topo::TransferEngine xfer(cluster);
  std::optional<msg::Communicator> comm;
  if (mpi) comm.emplace(cluster, gpus);
  auto compute_front = [&] {
    double t = 0.0;
    for (int d : gpus) t = std::max(t, cluster.device(d).clock().now());
    return t;
  };

  if (!c.active) {
    c.active = true;
    c.w = w;
    c.k = k;
    c.partial = RunResult{};
    c.partial.payload_bytes =
        2ull * static_cast<std::uint64_t>(n) * g * sizeof(T);
    // Entry instant. The overlapped schedule also waits for the DMA
    // engines (free-function calls may arrive with clocks already
    // advanced); the joined one never touches them.
    double t0 = compute_front();
    if (!joined) {
      for (int d : gpus) {
        t0 = std::max(t0, cluster.device(d).dma_clock().now());
      }
    }
    c.t0 = t0;
    c.last_boundary = t0;
    const auto cells = static_cast<std::size_t>(k * w);
    c.s1_done.assign(static_cast<std::size_t>(w), 0);
    c.gathered.assign(cells, 0);
    c.scanned.assign(cells, 0);
    c.scattered.assign(cells, 0);
    c.ev_s1.assign(cells, simt::Event{});
    c.ev_gather.assign(cells, simt::Event{});
    c.ev_scatter.assign(cells, simt::Event{});
    // Per-GPU auxiliary arrays (problem-major; peer writes need no local
    // reductions), plus the master's combined array of G*W*bx totals.
    c.aux_local.clear();
    c.prefix_local.clear();
    c.aux_all.release();
    c.carry.release();
    for (int d = 0; d < w; ++d) {
      simt::Device& dev = cluster.device(gpus[static_cast<std::size_t>(d)]);
      if (!peer) {
        c.aux_local.push_back(acquire_workspace<T>(ws, dev, lay.aux_elems()));
      }
      c.prefix_local.push_back(
          acquire_workspace<T>(ws, dev, lay.aux_elems()));
    }
    c.aux_all = acquire_workspace<T>(ws, master_dev, g * row_len);
    if (!joined) c.carry = acquire_workspace<T>(ws, master_dev, g);
    if (mpi) {
      // "After synchronizing all MPI processes, the first stage is
      // executed."
      auto span = obs::open_stage("EntryBarrier", t0);
      comm->barrier();
      c.last_boundary = compute_front();
      span.close(c.last_boundary);
      c.entry_barrier = c.last_boundary - t0;
    }
  }
  MGS_REQUIRE(c.w == w && c.k == k,
              "scan_mps: checkpoint shape mismatch on resume");

  const auto cell = [w](int v, int d) {
    return static_cast<std::size_t>(v * w + d);
  };
  const auto pending = [](const std::vector<char>& f) {
    return std::any_of(f.begin(), f.end(), [](char x) { return x == 0; });
  };
  // One stage between two boundaries: the window opens at the later of
  // the last boundary and the compute front and closes at the instant
  // `body` returns (never before it opened).
  const auto stage = [&](const char* name, int device, const auto& body) {
    const double t_in = std::max(c.last_boundary, compute_front());
    auto span = obs::open_stage(name, t_in, device);
    const double t_out = std::max(t_in, body());
    span.close(t_out);
    c.partial.breakdown.add(name, t_out - t_in);
    c.last_boundary = t_out;
  };

  // ---- The transport, fixed by the gather mode. Cell (v, d) holds device
  // d's reductions of wave v: row-major [g][d][c] in the combined array,
  // or rank-major [d][g][c] under MPI (MPI_Gather's layout, where each
  // cell is contiguous). Stage 2 scans rows [g0, g0+gn) and columns
  // [c0, c0+cn) of every row with the launcher that reads the layout.
  const char* const gather_stage = mpi ? "MPI_Gather" : "AuxGather";
  const char* const scatter_stage = mpi ? "MPI_Scatter" : "AuxScatter";
  const auto cell_at = [&](int v, int d) {
    return mpi ? (d * g + wave_begin(v)) * lay.bx
               : wave_begin(v) * row_len + d * lay.bx;
  };
  const auto scan_cells = [&](std::int64_t g0, std::int64_t gn,
                              std::int64_t c0, std::int64_t cn,
                              simt::DeviceBuffer<T>* carry) {
    if (mpi) {
      launch_intermediate_scan_ranked_slice(master_dev, c.aux_all.buffer(),
                                            lay.bx, w, g, g0, gn, c0, cn,
                                            carry, plan.s2, op);
    } else {
      launch_intermediate_scan_slice(master_dev, c.aux_all.buffer(), row_len,
                                     g0, gn, c0, cn, carry, plan.s2, op);
    }
  };
  // Move one cell between device d's array and the master -- the raw
  // reductions in, or the scanned prefixes back -- by copy_2d or
  // MPI_Isend. A transfer that hits a dead device/link throws with the
  // earlier cells' flags already set: their data already landed.
  const auto move_cell = [&](int v, int d, bool to_master,
                             simt::Event ready) {
    const std::int64_t at = wave_begin(v) * lay.bx;
    const std::int64_t rows = wave_begin(v + 1) - wave_begin(v);
    auto& local = (to_master ? c.aux_local : c.prefix_local)
                      [static_cast<std::size_t>(d)].buffer();
    auto& all = c.aux_all.buffer();
    if (mpi) {
      return to_master ? comm->isend(d, 0, local, at, all, cell_at(v, d),
                                     rows * lay.bx, ready)
                       : comm->isend(0, d, all, cell_at(v, d), local, at,
                                     rows * lay.bx, ready);
    }
    return (to_master
                ? xfer.copy_2d(all, cell_at(v, d), row_len, local, at,
                               lay.bx, rows, lay.bx, ready, engine)
                : xfer.copy_2d(local, at, lay.bx, all, cell_at(v, d),
                               row_len, rows, lay.bx, ready, engine))
        .done;
  };
  const auto scatter = [&](int v, int d, simt::Event ready) {
    const std::size_t i = cell(v, d);
    c.ev_scatter[i] = move_cell(v, d, false, ready);
    c.scattered[i] = 1;
  };
  // Joined MPI moves every cell at once, by one collective each way.
  const auto whole = [&](auto& locals) {
    std::vector<msg::Slice<T>> slices;
    for (auto& h : locals) slices.push_back({&h.buffer(), 0, lay.aux_elems()});
    return slices;
  };
  const auto gather_pending = [&] {
    if (mpi && joined) {
      comm->gather(0, whole(c.aux_local), c.aux_all.buffer(), 0);
      std::fill(c.gathered.begin(), c.gathered.end(), char{1});
      return;
    }
    for (int v = 0; v < k; ++v) {
      for (int d = 0; d < w; ++d) {
        const std::size_t i = cell(v, d);
        if (c.gathered[i] != 0) continue;
        c.ev_gather[i] = move_cell(v, d, true, c.ev_s1[i]);
        c.gathered[i] = 1;
      }
    }
  };
  simt::Stream master_stream(master_dev);
  const auto scatter_joined = [&] {
    if (mpi) {
      comm->scatter(0, c.aux_all.buffer(), 0, whole(c.prefix_local));
      std::fill(c.scattered.begin(), c.scattered.end(), char{1});
      return;
    }
    for (int d = 0; d < w; ++d) {
      if (c.scattered[cell(0, d)] == 0) scatter(0, d, master_stream.record());
    }
  };
  const auto bank_counters = [&] {
    c.counters.merge(xfer.fault_counters());
    if (comm) c.counters.merge(comm->fault_counters());
  };

  try {
    // ---- Stage 1 on every GPU, one launch per wave, each recording the
    // event its gather depends on. On resume only portions whose
    // reductions were lost re-run (chunk_reduce is pure, so relaunching a
    // whole portion reproduces its values and events bit-identically).
    if (pending(c.s1_done)) {
      stage(peer ? "Stage1+P2PWrites" : "Stage1", -1, [&] {
        for (int d = 0; d < w; ++d) {
          if (c.s1_done[static_cast<std::size_t>(d)] != 0) continue;
          simt::Stream s(cluster.device(gpus[static_cast<std::size_t>(d)]));
          const auto in_d = portion(src, d);
          if (peer) {
            detail::reduce_into_master(cluster, xfer, s.device(), master,
                                       in_d, c.aux_all.buffer(), lay, w, d,
                                       plan.s13, op);
            c.gathered[cell(0, d)] = 1;
          } else {
            for (int v = 0; v < k; ++v) {
              const std::int64_t g0 = wave_begin(v);
              launch_chunk_reduce(
                  s.device(), in_d,
                  c.aux_local[static_cast<std::size_t>(d)].buffer(), lay,
                  plan.s13, op, g0, wave_begin(v + 1) - g0);
              c.ev_s1[cell(v, d)] = s.record();
            }
          }
          c.s1_done[static_cast<std::size_t>(d)] = 1;
        }
        // The master may only start Stage 2 once every peer's writes
        // landed.
        if (peer) master_dev.clock().sync_to(compute_front());
        return compute_front();
      });
    }

    if (joined) {
      // ---- Gather, Stage 2 on the master only (empirically better than
      // splitting it across GPUs, per Section 4.1) and scatter, each
      // behind a barrier. The scatter fills the separate prefix arrays,
      // so the raw reductions stay valid for a re-gather if the master
      // dies later.
      if (pending(c.gathered)) {
        stage(gather_stage, -1, [&] {
          gather_pending();
          return compute_front();
        });
      }
      if (pending(c.scanned)) {
        stage("Stage2", master, [&] {
          scan_cells(0, g, 0, row_len, nullptr);
          std::fill(c.scanned.begin(), c.scanned.end(), char{1});
          return compute_front();
        });
      }
      if (pending(c.scattered)) {
        stage(scatter_stage, -1, [&] {
          scatter_joined();
          return compute_front();
        });
      }
    } else if (pending(c.scattered)) {
      // ---- Stage 2 + communication, fully event-driven: the gathers
      // queue on the DMA engines gated only by their wave's Stage-1 event;
      // the master consumes cells in (wave, device) program order -- and a
      // resume replays the skip-prefix in the same order -- so the per-row
      // carry accumulates operator applications in exactly the joined
      // schedule's order.
      stage("Stage2+Comm", -1, [&] {
        gather_pending();
        for (int v = 0; v < k; ++v) {
          const std::int64_t g0 = wave_begin(v);
          for (int d = 0; d < w; ++d) {
            const std::size_t i = cell(v, d);
            if (c.scanned[i] == 0) {
              master_stream.wait(c.ev_gather[i]);
              scan_cells(g0, wave_begin(v + 1) - g0, d * lay.bx, lay.bx,
                         &c.carry.buffer());
              c.scanned[i] = 1;
            }
            if (c.scattered[i] == 0) scatter(v, d, master_stream.record());
          }
        }
        double t_out = 0.0;
        for (const simt::Event& e : c.ev_scatter) {
          t_out = std::max(t_out, e.seconds);
        }
        return t_out;
      });
    }

    // ---- Stage 3 per GPU per wave, gated on that cell's prefix arrival.
    // Failures can only surface in the transfer stages, so Stage 3 always
    // runs whole once reached.
    stage("Stage3", -1, [&] {
      for (int d = 0; d < w; ++d) {
        simt::Stream s(cluster.device(gpus[static_cast<std::size_t>(d)]));
        const auto in_d = portion(src, d);
        auto out_d = portion(out, d);
        for (int v = 0; v < k; ++v) {
          const std::int64_t g0 = wave_begin(v);
          s.wait(c.ev_scatter[cell(v, d)]);
          launch_scan_add(s.device(), in_d, out_d,
                          c.prefix_local[static_cast<std::size_t>(d)].buffer(),
                          lay, plan.s13, kind, op, g0, wave_begin(v + 1) - g0);
        }
      }
      return compute_front();
    });

    if (mpi) {
      const double t_stage3 = c.last_boundary;
      auto span = obs::open_stage("ExitBarrier", t_stage3);
      comm->barrier();
      c.last_boundary = compute_front();
      span.close(c.last_boundary);
      c.partial.breakdown.add(
          "MPI_Barrier", c.entry_barrier + (c.last_boundary - t_stage3));
    }
  } catch (...) {
    // Preserve the counters of the aborted attempt (the engines die with
    // the unwind); the recovery driver re-enters with the same checkpoint.
    bank_counters();
    throw;
  }

  RunResult result = std::move(c.partial);
  c.partial = RunResult{};
  c.active = false;
  result.seconds = c.last_boundary - c.t0;
  bank_counters();
  result.faults.counters = c.counters;
  result.faults.resumed_stages = c.resumed_stages;
  return result;
}

}  // namespace mgs::core
