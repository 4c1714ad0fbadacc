#pragma once
/// \file scan_multinode.hpp
/// Multi-node Scan-MPS (Section 4.1, multi-node paragraph): one MPI rank
/// per GPU across M nodes; the chunk reductions travel to rank 0 with
/// MPI_Gather, Stage 2 runs on the master GPU, MPI_Scatter returns the
/// scanned prefixes, and barriers bracket the pipeline.

#include <vector>

#include "mgs/core/kernels.hpp"
#include "mgs/core/scan_mps.hpp"
#include "mgs/msg/comm.hpp"

namespace mgs::core {

/// Run the multi-node proposal over the communicator's M*W ranks.
/// `batches[r]` holds rank r's portion of every problem (distribute_batch
/// or borrow_batch over the ranks' devices). Returns makespan + breakdown including the MPI
/// collectives (the data behind Figure 14). Entry/exit barriers bracket
/// the pipeline on both schedules:
///
///  - synchronous (plan.pipe.overlap off, or a single rank): blocking
///    MPI_Gather of the chunk reductions to rank 0, Stage 2 on the master
///    over the rank-major layout, MPI_Scatter back. Breakdown Stage1 /
///    MPI_Gather / Stage2 / MPI_Scatter / Stage3 / MPI_Barrier.
///  - overlapped: the collectives become per-(wave, rank) MPI_Isend
///    messages on the endpoints' DMA engines. Each rank's wave of chunk
///    reductions travels to rank 0 the moment that rank computed it (its
///    contiguous region of the rank-major combined array), the master scans
///    each arriving (wave, rank) column chunk with a per-row carry, the
///    scanned slice returns by Isend, and Stage 3 runs per rank per wave on
///    arrival. Breakdown Stage1 / Stage2+Comm / Stage3 / MPI_Barrier.
///
/// Chunks of one row are scanned in ascending rank order on the master's
/// in-order compute engine, so results are bit-identical either way; the
/// breakdown entries are cut at stage-boundary instants and sum to
/// result.seconds exactly.
template <typename T, typename Op = Plus<T>>
RunResult scan_mps_multinode(msg::Communicator& comm,
                             std::vector<GpuBatch<T>>& batches,
                             std::int64_t n, std::int64_t g,
                             const ScanPlan& plan, ScanKind kind, Op op = {},
                             WorkspacePool* ws = nullptr) {
  plan.validate();
  const int ranks = comm.size();
  MGS_REQUIRE(static_cast<int>(batches.size()) == ranks,
              "scan_mps_multinode: one batch per rank required");
  MGS_REQUIRE(n % ranks == 0, "scan_mps_multinode: N must divide by M*W");
  const bool overlap = plan.pipe.overlap && ranks > 1;
  const std::int64_t n_local = n / ranks;
  const BatchLayout lay =
      make_layout(n_local, g, plan.s13, detail::batch_pitch(batches));
  const int k = overlap ? static_cast<int>(std::clamp<std::int64_t>(
                              plan.pipe.waves, 1, g))
                        : 1;
  const auto wave_begin = [&](int v) { return (g * v) / k; };
  const auto idx = [ranks](int v, int r) {
    return static_cast<std::size_t>(v * ranks + r);
  };

  topo::Cluster& cluster = comm.cluster();
  RunResult result;
  result.payload_bytes = 2ull * static_cast<std::uint64_t>(n) * g * sizeof(T);
  comm.reset_breakdown();
  comm.reset_fault_counters();

  auto compute_front = [&] {
    double t = 0.0;
    for (int r = 0; r < ranks; ++r) {
      t = std::max(t, cluster.device(comm.device_of(r)).clock().now());
    }
    return t;
  };
  // Entry instant; the overlapped schedule also waits for the DMA engines.
  double t0 = compute_front();
  if (overlap) {
    for (int r = 0; r < ranks; ++r) {
      t0 = std::max(t0, cluster.device(comm.device_of(r)).dma_clock().now());
    }
  }

  // Master allocates the combined array for Stage 2 (rank-major layout:
  // rank r's contribution at offset r*g*bx, matching MPI_Gather).
  simt::Device& master = cluster.device(comm.device_of(0));
  auto aux_all = acquire_workspace<T>(
      ws, master, static_cast<std::int64_t>(ranks) * g * lay.bx);
  WorkspacePool::Handle<T> carry;
  if (overlap) carry = acquire_workspace<T>(ws, master, g);
  std::vector<WorkspacePool::Handle<T>> aux_local;
  aux_local.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    aux_local.push_back(acquire_workspace<T>(
        ws, cluster.device(comm.device_of(r)), lay.aux_elems()));
  }

  // "After synchronizing all MPI processes, the first stage is executed."
  auto entry_stage = obs::open_stage("EntryBarrier", t0);
  comm.barrier();
  const double t_sync = compute_front();
  entry_stage.close(t_sync);

  // One stage between two boundaries, closing at the instant `body`
  // returns (never before it opened). Every breakdown entry is such a
  // [boundary, boundary] window cut on the global compute front, NOT the
  // communicator's master-dwell numbers: dwell is measured from the
  // master's own entry clock, which lags the front whenever a compute
  // straggler stretches Stage 1.
  double t_last = t_sync;
  const auto stage = [&](const char* name, int device, const auto& body) {
    auto span = obs::open_stage(name, t_last, device);
    const double t_out = std::max(t_last, body());
    span.close(t_out);
    result.breakdown.add(name, t_out - t_last);
    t_last = t_out;
  };

  // ---- Stage 1 on every rank, one launch per wave.
  std::vector<simt::Event> ev_s1(static_cast<std::size_t>(k * ranks));
  std::vector<simt::Event> ev_scatter(static_cast<std::size_t>(k * ranks));
  stage("Stage1", -1, [&] {
    for (int r = 0; r < ranks; ++r) {
      simt::Stream s(cluster.device(comm.device_of(r)));
      for (int v = 0; v < k; ++v) {
        const std::int64_t g0 = wave_begin(v);
        launch_chunk_reduce(s.device(), batches[static_cast<std::size_t>(r)].in,
                            aux_local[static_cast<std::size_t>(r)].buffer(),
                            lay, plan.s13, op, g0, wave_begin(v + 1) - g0);
        ev_s1[idx(v, r)] = s.record();
      }
    }
    return compute_front();
  });

  if (!overlap) {
    // ---- MPI_Gather to rank 0, Stage 2 on the master GPU over the
    // rank-major layout, MPI_Scatter back (each rank's region of the
    // rank-major array is contiguous).
    std::vector<msg::Slice<T>> slices;
    for (int r = 0; r < ranks; ++r) {
      slices.push_back({&aux_local[static_cast<std::size_t>(r)].buffer(), 0,
                        lay.aux_elems()});
    }
    stage("MPI_Gather", -1, [&] {
      comm.gather(0, slices, aux_all.buffer(), 0);
      return compute_front();
    });
    stage("Stage2", comm.device_of(0), [&] {
      launch_intermediate_scan_ranked_slice(master, aux_all.buffer(), lay.bx,
                                            ranks, g, 0, g, 0, ranks * lay.bx,
                                            nullptr, plan.s2, op);
      return compute_front();
    });
    stage("MPI_Scatter", -1, [&] {
      comm.scatter(0, aux_all.buffer(), 0, slices);
      return compute_front();
    });
  } else {
    // ---- Stage 2 + communication. Rank r's rows of wave v form one
    // contiguous region of the rank-major array (offset r*g*bx + g0*bx),
    // so each (wave, rank) gather is a single Isend gated on its Stage-1
    // event.
    stage("Stage2+Comm", -1, [&] {
      std::vector<simt::Event> ev_gather(static_cast<std::size_t>(k * ranks));
      for (int v = 0; v < k; ++v) {
        const std::int64_t g0 = wave_begin(v);
        for (int r = 0; r < ranks; ++r) {
          ev_gather[idx(v, r)] = comm.isend(
              r, 0, aux_local[static_cast<std::size_t>(r)].buffer(),
              g0 * lay.bx, aux_all.buffer(),
              static_cast<std::int64_t>(r) * g * lay.bx + g0 * lay.bx,
              (wave_begin(v + 1) - g0) * lay.bx, ev_s1[idx(v, r)]);
        }
      }
      simt::Stream master_stream(master);
      double t_out = 0.0;
      for (int v = 0; v < k; ++v) {
        const std::int64_t g0 = wave_begin(v);
        const std::int64_t gn = wave_begin(v + 1) - g0;
        for (int r = 0; r < ranks; ++r) {
          master_stream.wait(ev_gather[idx(v, r)]);
          launch_intermediate_scan_ranked_slice(
              master, aux_all.buffer(), lay.bx, ranks, g, g0, gn,
              static_cast<std::int64_t>(r) * lay.bx, lay.bx, &carry.buffer(),
              plan.s2, op);
          ev_scatter[idx(v, r)] = comm.isend(
              0, r, aux_all.buffer(),
              static_cast<std::int64_t>(r) * g * lay.bx + g0 * lay.bx,
              aux_local[static_cast<std::size_t>(r)].buffer(), g0 * lay.bx,
              gn * lay.bx, master_stream.record());
          t_out = std::max(t_out, ev_scatter[idx(v, r)].seconds);
        }
      }
      return t_out;
    });
  }

  // ---- Stage 3 per rank per wave, gated on the prefix arrival.
  stage("Stage3", -1, [&] {
    for (int r = 0; r < ranks; ++r) {
      simt::Stream s(cluster.device(comm.device_of(r)));
      for (int v = 0; v < k; ++v) {
        const std::int64_t g0 = wave_begin(v);
        s.wait(ev_scatter[idx(v, r)]);
        launch_scan_add(s.device(), batches[static_cast<std::size_t>(r)].in,
                        batches[static_cast<std::size_t>(r)].out,
                        aux_local[static_cast<std::size_t>(r)].buffer(), lay,
                        plan.s13, kind, op, g0, wave_begin(v + 1) - g0);
      }
    }
    return compute_front();
  });

  const double t_stage3 = t_last;
  auto exit_stage = obs::open_stage("ExitBarrier", t_stage3);
  comm.barrier();
  const double t_end = compute_front();
  exit_stage.close(t_end);
  result.breakdown.add("MPI_Barrier", (t_sync - t0) + (t_end - t_stage3));

  result.seconds = t_end - t0;
  result.faults.counters = comm.fault_counters();
  return result;
}

}  // namespace mgs::core
