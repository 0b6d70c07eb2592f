// §V-C "Maximum number of consensus per second" (64 B values):
//   "P4CE can sustain 2.3 million consensus per second, a 1.9x speed
//    increase over Mu with 2 replicas and around 3.8x with 4 replicas."
// The network is not the bottleneck at 64 B; the leader CPU is.
#include <cstdio>

#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

double measure(workload::BenchSession& session, consensus::Mode mode, u32 machines, u64 ops) {
  core::ClusterOptions options;
  options.machines = machines;
  options.mode = mode;
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  if (!cluster->start()) return 0.0;
  const auto result = workload::run_closed_loop(*cluster, /*value_size=*/64, /*window=*/16, ops,
                                                /*warmup=*/2000);
  return result.ops_per_sec;
}

}  // namespace

int main() {
  workload::BenchSession session("tab_consensus_rate");
  session.set_backend("mixed");
  workload::print_header(
      "Consensus rate, 64 B values (paper §V-C, text)",
      "P4CE 2.3 M consensus/s; 1.9x over Mu with 2 replicas, ~3.8x with 4 replicas");

  const u64 ops = 60'000;
  workload::Table table("Maximum consensus per second (closed loop, window 16)",
                        {"replicas", "Mu (M/s)", "1-sided (M/s)", "P4CE (M/s)", "speedup",
                         "paper speedup"});

  for (u32 replicas : {2u, 4u}) {
    const double mu = measure(session, consensus::Mode::kMu, replicas + 1, ops);
    const double os = measure(session, consensus::Mode::kOneSided, replicas + 1, ops);
    const double p4 = measure(session, consensus::Mode::kP4ce, replicas + 1, ops);
    table.add_row({std::to_string(replicas), workload::Table::fmt(mu / 1e6),
                   workload::Table::fmt(os / 1e6), workload::Table::fmt(p4 / 1e6),
                   workload::Table::fmt(p4 / mu, 1) + "x", replicas == 2 ? "1.9x" : "3.8x"});
  }
  table.print();
  session.add_table(table);
  std::printf(
      "\nExpected shape: P4CE ~2.3 M/s regardless of replicas; Mu divided by n; the\n"
      "one-sided backend below Mu (two posted WRs per replica per consensus).\n");
  return 0;
}
