// Figure 7: "Latency with 64 B requests" vs the number of consensus in
// flight (burst size).
//
// Claims reproduced: the latency difference between P4CE and Mu grows with
// the number of consensus on the fly; Mu becomes CPU-limited beyond ~10
// simultaneous queries; P4CE's latency is about half of Mu's at bursts of
// 100 requests.
#include <cstdio>

#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

workload::BurstResult measure(workload::BenchSession& session, consensus::Mode mode,
                              u32 machines, u32 burst) {
  core::ClusterOptions options;
  options.machines = machines;
  options.mode = mode;
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  if (!cluster->start()) return {};
  // A couple of warmup bursts, then the measured ones.
  workload::run_burst(*cluster, 64, burst, 5);
  return workload::run_burst(*cluster, 64, burst, 200);
}

}  // namespace

int main() {
  workload::BenchSession session("fig7_burst_latency");
  session.set_backend("mixed");
  workload::print_header(
      "Figure 7: burst latency, 64 B requests",
      "Mu CPU-limited beyond ~10 in-flight consensus; P4CE latency ~half of Mu's at "
      "bursts of 100");

  for (u32 replicas : {2u, 4u}) {
    workload::Table table(
        "Fig. 7: burst-completion latency (us), " + std::to_string(replicas) + " replicas",
        {"burst size", "Mu (us)", "1-sided (us)", "P4CE (us)", "Mu/P4CE"});
    for (u32 burst : {1u, 2u, 5u, 10u, 20u, 50u, 100u}) {
      const auto mu = measure(session, consensus::Mode::kMu, replicas + 1, burst);
      const auto os = measure(session, consensus::Mode::kOneSided, replicas + 1, burst);
      const auto p4 = measure(session, consensus::Mode::kP4ce, replicas + 1, burst);
      table.add_row({std::to_string(burst), workload::Table::fmt(mu.mean_burst_us, 1),
                     workload::Table::fmt(os.mean_burst_us, 1),
                     workload::Table::fmt(p4.mean_burst_us, 1),
                     workload::Table::fmt(p4.mean_burst_us > 0
                                              ? mu.mean_burst_us / p4.mean_burst_us
                                              : 0, 2) + "x"});
    }
    table.print();
    session.add_table(table);
  }
  std::printf(
      "\nExpected shape: equal-ish at burst 1; the gap widens with burst size as Mu's\n"
      "per-consensus CPU cost (n posts + n ACKs) dominates; ~2x at burst 100.\n");
  return 0;
}
