// Unit tests for mgs/msg: the in-process MPI runtime -- rank/device
// mapping, barrier clock semantics, gather/scatter data movement and the
// link-aware cost model.

#include <gtest/gtest.h>

#include "mgs/msg/comm.hpp"
#include "mgs/sim/fault.hpp"

namespace mm = mgs::msg;
namespace mt = mgs::topo;

namespace {

mm::Communicator make_comm(mt::Cluster& cluster, int ranks) {
  std::vector<int> ids;
  for (int r = 0; r < ranks; ++r) ids.push_back(r);
  return mm::Communicator(cluster, std::move(ids));
}

}  // namespace

TEST(Comm, RankMappingValidated) {
  auto c = mt::tsubame_kfc_cluster(1);
  EXPECT_THROW(mm::Communicator(c, {}), mgs::util::Error);
  EXPECT_THROW(mm::Communicator(c, {0, 0}), mgs::util::Error);
  EXPECT_THROW(mm::Communicator(c, {0, 99}), mgs::util::Error);
  mm::Communicator comm(c, {3, 5});
  EXPECT_EQ(comm.size(), 2);
  EXPECT_EQ(comm.device_of(0), 3);
  EXPECT_EQ(comm.device_of(1), 5);
}

TEST(Comm, BarrierSynchronizesClocks) {
  auto c = mt::tsubame_kfc_cluster(2);
  auto comm = make_comm(c, 16);
  c.device(7).clock().advance(1.0);  // one laggard
  const double done = comm.barrier();
  EXPECT_GT(done, 1.0);  // max + alpha*levels
  for (int r = 0; r < comm.size(); ++r) {
    EXPECT_DOUBLE_EQ(c.device(comm.device_of(r)).clock().now(), done);
  }
}

TEST(Comm, GatherConcatenatesByRank) {
  auto c = mt::tsubame_kfc_cluster(2);
  auto comm = make_comm(c, 4);
  std::vector<mgs::simt::DeviceBuffer<int>> bufs;
  std::vector<mm::Slice<int>> slices;
  for (int r = 0; r < 4; ++r) {
    bufs.push_back(c.device(r).alloc<int>(3));
    for (int i = 0; i < 3; ++i) {
      bufs.back().host_span()[static_cast<std::size_t>(i)] = 10 * r + i;
    }
  }
  for (int r = 0; r < 4; ++r) slices.push_back({&bufs[static_cast<std::size_t>(r)], 0, 3});
  auto recv = c.device(0).alloc<int>(12);
  comm.gather(0, slices, recv, 0);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(recv.host_span()[static_cast<std::size_t>(3 * r + i)], 10 * r + i);
    }
  }
}

TEST(Comm, ScatterIsGatherInverse) {
  auto c = mt::tsubame_kfc_cluster(2);
  auto comm = make_comm(c, 4);
  auto send = c.device(0).alloc<int>(8);
  for (int i = 0; i < 8; ++i) send.host_span()[static_cast<std::size_t>(i)] = i * i;
  std::vector<mgs::simt::DeviceBuffer<int>> bufs;
  for (int r = 0; r < 4; ++r) bufs.push_back(c.device(r).alloc<int>(2));
  std::vector<mm::Slice<int>> slices;
  for (int r = 0; r < 4; ++r) slices.push_back({&bufs[static_cast<std::size_t>(r)], 0, 2});
  comm.scatter(0, send, 0, slices);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)].host_span()[0], (2 * r) * (2 * r));
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)].host_span()[1],
              (2 * r + 1) * (2 * r + 1));
  }
}

TEST(Comm, CollectivesBlockEveryRank) {
  auto c = mt::tsubame_kfc_cluster(2);
  auto comm = make_comm(c, 8);
  std::vector<mgs::simt::DeviceBuffer<int>> bufs;
  std::vector<mm::Slice<int>> slices;
  bufs.reserve(8);
  for (int r = 0; r < 8; ++r) {
    bufs.push_back(c.device(r).alloc<int>(4));
    slices.push_back({&bufs.back(), 0, 4});
  }
  auto recv = c.device(0).alloc<int>(32);
  const double done = comm.gather(0, slices, recv, 0);
  for (int r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(c.device(r).clock().now(), done);
  }
}

TEST(Comm, InterNodeGatherCostsMoreThanIntraNode) {
  // 8 ranks on one node vs. spread over two nodes: same bytes, but the
  // cross-node messages ride InfiniBand with MPI overhead.
  auto c1 = mt::tsubame_kfc_cluster(2);
  auto intra = make_comm(c1, 8);  // devices 0..7 = node 0
  auto c2 = mt::tsubame_kfc_cluster(2);
  mm::Communicator inter(c2, {0, 1, 2, 3, 8, 9, 10, 11});

  auto run = [](mm::Communicator& comm, mt::Cluster& c) {
    std::vector<mgs::simt::DeviceBuffer<int>> bufs;
    std::vector<mm::Slice<int>> slices;
    bufs.reserve(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      bufs.push_back(c.device(comm.device_of(r)).alloc<int>(1024));
      slices.push_back({&bufs.back(), 0, 1024});
    }
    auto recv = c.device(comm.device_of(0)).alloc<int>(1024 * 8);
    return comm.gather(0, slices, recv, 0);
  };
  EXPECT_LT(run(intra, c1), run(inter, c2));
}

TEST(Comm, GatherValidatesShapes) {
  auto c = mt::tsubame_kfc_cluster(1);
  auto comm = make_comm(c, 2);
  auto b0 = c.device(0).alloc<int>(4);
  auto b1 = c.device(1).alloc<int>(4);
  auto recv = c.device(0).alloc<int>(4);  // too small for 2 ranks x 4
  std::vector<mm::Slice<int>> slices = {{&b0, 0, 4}, {&b1, 0, 4}};
  EXPECT_DEATH(comm.gather(0, slices, recv, 0), "too small");
  std::vector<mm::Slice<int>> uneven = {{&b0, 0, 4}, {&b1, 0, 2}};
  auto recv8 = c.device(0).alloc<int>(8);
  EXPECT_DEATH(comm.gather(0, uneven, recv8, 0), "equal-size");
}

// ---------------------------------------------------------------------------
// Negative paths: collectives over a cluster with injected faults must
// raise a typed CommError identifying the failed rank -- never silently
// deliver partial data.

namespace {

/// Per-rank buffers + slices for a `ranks`-wide collective of `count`
/// elements each.
struct CollectiveBufs {
  std::vector<mgs::simt::DeviceBuffer<int>> bufs;
  std::vector<mm::Slice<int>> slices;

  CollectiveBufs(mt::Cluster& c, mm::Communicator& comm, std::int64_t count) {
    bufs.reserve(static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      bufs.push_back(c.device(comm.device_of(r)).alloc<int>(count));
      slices.push_back({&bufs.back(), 0, count});
    }
  }
};

}  // namespace

TEST(CommFaults, GatherWithDownRankRaisesCommError) {
  auto c = mt::tsubame_kfc_cluster(1);
  auto fi = mgs::sim::FaultInjector(
      mgs::sim::parse_fault_plan("device-down:dev=2"));
  c.set_fault_injector(&fi);
  auto comm = make_comm(c, 4);
  CollectiveBufs b(c, comm, 4);
  auto recv = c.device(0).alloc<int>(16);
  try {
    comm.gather(0, b.slices, recv, 0);
    FAIL() << "expected CommError";
  } catch (const mm::CommError& e) {
    EXPECT_EQ(e.failed_rank, 2);
    EXPECT_NE(std::string(e.what()).find("MPI_Gather"), std::string::npos);
  }
}

TEST(CommFaults, ScatterWithDownRankRaisesCommError) {
  auto c = mt::tsubame_kfc_cluster(1);
  auto fi = mgs::sim::FaultInjector(
      mgs::sim::parse_fault_plan("device-down:dev=1"));
  c.set_fault_injector(&fi);
  auto comm = make_comm(c, 4);
  CollectiveBufs b(c, comm, 4);
  auto send = c.device(0).alloc<int>(16);
  try {
    comm.scatter(0, send, 0, b.slices);
    FAIL() << "expected CommError";
  } catch (const mm::CommError& e) {
    EXPECT_EQ(e.failed_rank, 1);
  }
}

TEST(CommFaults, BarrierTimeoutBlamesTheLaggard) {
  auto c = mt::tsubame_kfc_cluster(1);
  auto fi = mgs::sim::FaultInjector(
      mgs::sim::parse_fault_plan("policy:timeout-s=0.5"));
  c.set_fault_injector(&fi);
  auto comm = make_comm(c, 4);
  c.device(3).clock().advance(1.0);  // dwell beyond the timeout
  try {
    comm.barrier();
    FAIL() << "expected CommError";
  } catch (const mm::CommError& e) {
    EXPECT_EQ(e.failed_rank, 3);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

TEST(CommFaults, RetryExhaustionRaisesCommError) {
  auto c = mt::tsubame_kfc_cluster(1);
  // Every first attempt on the 1->0 pair fails and no retry is allowed.
  auto fi = mgs::sim::FaultInjector(mgs::sim::parse_fault_plan(
      "transient:src=1,dst=0,op=0,count=1000;policy:retries=0"));
  c.set_fault_injector(&fi);
  auto comm = make_comm(c, 2);
  CollectiveBufs b(c, comm, 16);
  auto recv = c.device(0).alloc<int>(32);
  try {
    comm.gather(0, b.slices, recv, 0);
    FAIL() << "expected CommError";
  } catch (const mm::CommError& e) {
    EXPECT_EQ(e.failed_rank, 1);
  }
  EXPECT_GT(comm.fault_counters().transient_failures, 0u);
}

TEST(CommFaults, HealthyClusterUnaffectedByDetachedInjector) {
  // Attaching and detaching an injector leaves collective times identical.
  auto run_once = [](mt::Cluster& c, mgs::sim::FaultInjector* fi) {
    c.set_fault_injector(fi);
    auto comm = make_comm(c, 4);
    CollectiveBufs b(c, comm, 64);
    auto recv = c.device(0).alloc<int>(256);
    return comm.gather(0, b.slices, recv, 0);
  };
  auto c1 = mt::tsubame_kfc_cluster(1);
  const double plain = run_once(c1, nullptr);
  auto c2 = mt::tsubame_kfc_cluster(1);
  auto fi = mgs::sim::FaultInjector(mgs::sim::FaultPlan{});
  const double with_empty_plan = run_once(c2, &fi);
  EXPECT_DOUBLE_EQ(plain, with_empty_plan);
}
