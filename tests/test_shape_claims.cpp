// The paper's shape claims (EXPERIMENTS.md), pinned on the committed
// golden table bench_results/golden_modeled.ndjson (total 2^20, n = 2^13
// .. 2^20). The `golden` ctest keeps the table equal to what the benches
// produce; these tests keep a re-snapshot from silently moving a claim.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mgs/obs/history.hpp"

namespace {

using mgs::obs::HistoryEntry;

constexpr int kTotalLog2 = 20;
constexpr int kMinNLog2 = 13;

class GoldenTable : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (auto& e : mgs::obs::RunHistory(MGS_GOLDEN_TABLE).load()) {
      // First occurrence wins (Figures 13 and 14 record the same runs).
      table().emplace(e.key.str(), std::move(e));
    }
  }
  static std::map<std::string, HistoryEntry>& table() {
    static std::map<std::string, HistoryEntry> t;
    return t;
  }

  /// Modeled seconds of one golden point; fails the test when absent.
  static double seconds(const std::string& executor, const std::string& dtype,
                        const std::string& op, const std::string& pipeline,
                        int nlog, std::int64_t g, int devices) {
    mgs::obs::HistoryKey k;
    k.executor = executor;
    k.dtype = dtype;
    k.op = op;
    k.pipeline = pipeline;
    k.n = std::uint64_t{1} << nlog;
    k.g = g;
    k.devices = devices;
    const auto it = table().find(k.str());
    EXPECT_NE(it, table().end()) << "golden table lacks " << k.str();
    return it == table().end() ? 0.0 : it->second.seconds;
  }
  static std::int64_t batch(int nlog) {
    return std::int64_t{1} << (kTotalLog2 - nlog);
  }
};

const std::vector<std::pair<std::string, std::string>> kFig9Cells = {
    {"i32", "plus"}, {"f64", "max"}, {"i64", "min"}};
const std::vector<std::string> kLibs = {"CUDPP", "Thrust", "ModernGPU",
                                        "CUB", "LightScan"};

TEST_F(GoldenTable, CoversEveryFigurePoint) {
  // 3 x 53 Figure 9 + 14 Figure 10 + 72 Figure 11 + 56 Figure 12 +
  // 8 Figure 13 + 8 Figure 14 lines, less the repeats: Figure 14 reruns
  // Figure 13's 8 points, and Figure 12's G = 1 point reruns Figure 11's
  // Scan-SP and 5 library points.
  EXPECT_EQ(table().size(), 303u);
}

TEST_F(GoldenTable, Fig9OverlapNeverLosesToSync) {
  for (const auto& [dt, op] : kFig9Cells) {
    for (int nlog = kMinNLog2; nlog < kTotalLog2; ++nlog) {  // G > 1
      for (int w : {2, 4, 8}) {
        const std::int64_t g = batch(nlog);
        EXPECT_LE(seconds("Scan-MPS", dt, op, "overlap", nlog, g, w),
                  seconds("Scan-MPS", dt, op, "sync", nlog, g, w))
            << dt << "/" << op << " n=2^" << nlog << " W=" << w;
      }
    }
  }
}

TEST_F(GoldenTable, Fig9W8IsTheSlowestMultiGpuWidthAtSmallestN) {
  const std::int64_t g = batch(kMinNLog2);
  for (const auto& [dt, op] : kFig9Cells) {
    const double t8 = seconds("Scan-MPS", dt, op, "overlap", kMinNLog2, g, 8);
    for (int w : {2, 4}) {
      EXPECT_GT(t8, seconds("Scan-MPS", dt, op, "overlap", kMinNLog2, g, w))
          << dt << "/" << op << " W=" << w;
    }
  }
}

TEST_F(GoldenTable, Fig9W8RecoversAgainstW4AsNGrows) {
  // Throughput ratio W=8/W=4 == t(W=4) / t(W=8) at the same n.
  for (const auto& [dt, op] : kFig9Cells) {
    const auto ratio = [&](int nlog) {
      const std::int64_t g = batch(nlog);
      return seconds("Scan-MPS", dt, op, "overlap", nlog, g, 4) /
             seconds("Scan-MPS", dt, op, "overlap", nlog, g, 8);
    };
    EXPECT_LT(ratio(kMinNLog2), ratio(kTotalLog2)) << dt << "/" << op;
  }
}

TEST_F(GoldenTable, Fig11CubLeadsThrustTrailsAndSmallNFavorsOneGpu) {
  for (int nlog = kMinNLog2; nlog <= kTotalLog2; ++nlog) {
    std::map<std::string, double> t;
    for (const auto& lib : kLibs) {
      t[lib] = seconds(lib, "i32", "plus", "sync", nlog, 1, 1);
    }
    for (const auto& lib : kLibs) {
      if (lib != "CUB") {
        EXPECT_LT(t["CUB"], t[lib]) << lib << " n=2^" << nlog;
      }
      if (lib != "Thrust") {
        EXPECT_GT(t["Thrust"], t[lib]) << lib << " n=2^" << nlog;
      }
    }
  }
  // G = 1 at small n: communication latency outweighs the split, so the
  // best multi-GPU width loses to the strongest single-GPU library.
  double best = 1e30;
  for (int w : {2, 4, 8}) {
    best = std::min(
        best, seconds("Scan-MPS", "i32", "plus", "auto", kMinNLog2, 1, w));
  }
  EXPECT_GT(best, seconds("CUB", "i32", "plus", "sync", kMinNLog2, 1, 1));
}

TEST_F(GoldenTable, Fig12LoserOrderingAndMpPcLeadsEverywhere) {
  const auto lib = [&](const std::string& name, int nlog) {
    return seconds(name, "i32", "plus", "sync", nlog, batch(nlog), 1);
  };
  // Slowest first at the smallest n: LightScan, ModernGPU, Thrust, CUB.
  EXPECT_GT(lib("LightScan", kMinNLog2), lib("ModernGPU", kMinNLog2));
  EXPECT_GT(lib("ModernGPU", kMinNLog2), lib("Thrust", kMinNLog2));
  EXPECT_GT(lib("Thrust", kMinNLog2), lib("CUB", kMinNLog2));
  for (int nlog = kMinNLog2; nlog <= kTotalLog2; ++nlog) {
    const std::int64_t g = batch(nlog);
    // Both PCIe networks while G >= 2, one network at G = 1.
    const double ours = seconds("Scan-MP-PC", "i32", "plus", "auto", nlog, g,
                                g >= 2 ? 8 : 4);
    for (const auto& name : kLibs) {
      EXPECT_LT(ours, lib(name, nlog)) << name << " n=2^" << nlog;
    }
  }
}

}  // namespace
