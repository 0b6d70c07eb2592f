// Workload-harness tests: the generators that drive every bench must
// themselves be trustworthy — window discipline, measurement accounting,
// open-loop rate fidelity, burst timing, and the in-flight-PSN guard.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

namespace p4ce::workload {
namespace {

std::unique_ptr<core::Cluster> make_cluster() {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = consensus::Mode::kP4ce;
  auto cluster = core::Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  return cluster;
}

TEST(SafeWindow, RespectsNumRecvCapacity) {
  // The switch aggregates 256 in-flight PSNs (§IV-C): window * packets-per-
  // write must stay below that.
  EXPECT_EQ(safe_window(64), 16u);            // 1 packet -> full window
  EXPECT_EQ(safe_window(1024), 16u);          // 1 packet
  EXPECT_EQ(safe_window(16 * 1024), 16u);     // 16 packets -> 256/16 = 16
  EXPECT_EQ(safe_window(32 * 1024), 8u);      // 32 packets -> 8
  EXPECT_EQ(safe_window(256 * 1024), 1u);     // 256 packets -> 1
  EXPECT_EQ(safe_window(1024 * 1024), 1u);    // never zero
}

TEST(ClosedLoop, CountsExactlyTheMeasuredOps) {
  auto cluster = make_cluster();
  const auto result = run_closed_loop(*cluster, 64, 8, 2000, 100);
  EXPECT_EQ(result.operations, 2000u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.ops_per_sec, 0.0);
  EXPECT_GT(result.p50_latency_us, 0.0);
  EXPECT_LE(result.p50_latency_us, result.p99_latency_us);
}

TEST(ClosedLoop, GoodputScalesWithValueSize) {
  auto cluster = make_cluster();
  const auto small = run_closed_loop(*cluster, 64, 8, 2000, 100);
  auto cluster2 = make_cluster();
  const auto big = run_closed_loop(*cluster2, 4096, 8, 2000, 100);
  EXPECT_GT(big.goodput_gbps, 10 * small.goodput_gbps);
}

TEST(BatchedGoodput, AccountsValueBytesOnly) {
  auto cluster = make_cluster();
  const auto result = run_batched_goodput(*cluster, 512, 16, 8, 1000, 50);
  EXPECT_EQ(result.operations, 16u * 1000u);
  // goodput * elapsed == value bytes.
  const double bytes = result.goodput_gbps * 1e9 * to_seconds(result.elapsed);
  EXPECT_NEAR(bytes, 16.0 * 1000 * 512, 16.0 * 1000 * 512 * 0.01);
}

TEST(OpenLoop, AchievedTracksOfferedBelowSaturation) {
  auto cluster = make_cluster();
  const auto result = run_open_loop(*cluster, 64, 500e3, milliseconds(10), milliseconds(1));
  EXPECT_NEAR(result.ops_per_sec, 500e3, 50e3);
  EXPECT_GT(result.p50_latency_us, 1.0);
  EXPECT_LT(result.p50_latency_us, 10.0);
}

TEST(OpenLoop, SaturationCapsAchievedAndBlowsUpLatency) {
  auto cluster = make_cluster();
  const auto result = run_open_loop(*cluster, 64, 5e6, milliseconds(10), milliseconds(1));
  EXPECT_LT(result.ops_per_sec, 2.6e6);  // capacity, not the offered 5M
  EXPECT_GT(result.p50_latency_us, 100.0);
}

TEST(Burst, CompletionTimeGrowsWithBurstSize) {
  auto cluster = make_cluster();
  const auto small = run_burst(*cluster, 64, 4, 20);
  const auto big = run_burst(*cluster, 64, 64, 20);
  EXPECT_GT(small.mean_burst_us, 0.0);
  EXPECT_GT(big.mean_burst_us, 2 * small.mean_burst_us);
  EXPECT_EQ(big.burst, 64u);
}

TEST(Report, TableFormatsRows) {
  Table table("demo", {"a", "bee"});
  table.add_row({"1", "2"});
  table.add_row({"wide-cell", "3"});
  table.print();  // visual only; must not crash
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

TEST(BenchSession, WritesOneRunEntryPerAttachedClusterInAttachOrder) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "p4ce_workload_test_bench";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("P4CE_BENCH_DIR", dir.c_str(), 1), 0);
  ASSERT_EQ(setenv("P4CE_TRACE", "1", 1), 0);
  {
    BenchSession session("two_runs");
    session.enable_attribution();
    for (auto [mode, machines] : {std::pair{consensus::Mode::kMu, 3u},
                                  std::pair{consensus::Mode::kP4ce, 5u}}) {
      core::ClusterOptions options;
      options.machines = machines;
      options.mode = mode;
      auto cluster = core::Cluster::create(options);
      session.attach(*cluster);
      ASSERT_TRUE(cluster->start());
      run_closed_loop(*cluster, 64, 4, 100, 10);
    }  // each cluster is gone before finish(); its context is not
    session.finish();
  }
  unsetenv("P4CE_BENCH_DIR");
  unsetenv("P4CE_TRACE");

  const auto read = [&](const char* file) {
    std::ifstream in(dir / file);
    EXPECT_TRUE(in.good()) << file;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string json = read("BENCH_two_runs.json");
  const std::string trace = read("TRACE_two_runs.json");
  // The metrics snapshots live in BENCH runs[] only.
  EXPECT_FALSE(std::filesystem::exists(dir / "METRICS_two_runs.json"));
  std::filesystem::remove_all(dir);

  // One trace process per attached run, numbered in attach order.
  EXPECT_NE(trace.find("\"process_name\", \"ph\": \"M\", \"pid\": 1,"), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"process_name\", \"ph\": \"M\", \"pid\": 2,"), std::string::npos);
  EXPECT_EQ(trace.find("\"process_name\", \"ph\": \"M\", \"pid\": 3,"), std::string::npos);

  const auto runs = json.find("\"runs\": [");
  ASSERT_NE(runs, std::string::npos) << json;
  const auto mu = json.find("{\"backend\": \"mu\", \"machines\": 3, \"domains\": 1", runs);
  const auto p4 = json.find("{\"backend\": \"p4ce\", \"machines\": 5, \"domains\": 1", runs);
  ASSERT_NE(mu, std::string::npos) << json;
  ASSERT_NE(p4, std::string::npos) << json;
  EXPECT_LT(mu, p4);  // attach order
  // Each run carries its own attribution report and metrics snapshot, and
  // neither block appears outside runs[].
  EXPECT_NE(json.find("\"attribution\"", mu), std::string::npos);
  EXPECT_NE(json.find("\"attribution\"", p4), std::string::npos);
  EXPECT_NE(json.find("\"consensus.commits\"", p4), std::string::npos);
  EXPECT_EQ(json.find("\"metrics\""), json.find("\"metrics\"", runs));
  EXPECT_EQ(json.find("\"attribution\""), json.find("\"attribution\"", runs));
}

}  // namespace
}  // namespace p4ce::workload
