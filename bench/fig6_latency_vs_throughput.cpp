// Figure 6: "Evolution of latency with 64 B requests vs. throughput.
// (a) With 2 replicas; (b) with 4 replicas."
//
// Claims reproduced: below saturation P4CE's latency is ~10% lower than
// Mu's; Mu becomes CPU-bound and cannot exceed ~1.2 M consensus/s with 2
// replicas (~600 k with 4) while P4CE sustains ~2.3 M regardless of the
// number of replicas.
#include <cstdio>
#include <memory>

#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

std::unique_ptr<core::Cluster> make(workload::BenchSession& session, consensus::Mode mode,
                                    u32 machines) {
  core::ClusterOptions options;
  options.machines = machines;
  options.mode = mode;
  options.log_size = 256ull << 20;
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  cluster->start();
  return cluster;
}

}  // namespace

int main() {
  workload::BenchSession session("fig6_latency_vs_throughput");
  session.set_backend("mixed");
  // Per-stage commit-latency breakdown (p50/p99/p999 per pipeline stage) in
  // the BENCH json — the figure's latency numbers plus where they come from.
  session.enable_attribution();
  workload::print_header(
      "Figure 6: latency vs offered throughput, 64 B requests",
      "P4CE ~10% lower latency below saturation; Mu saturates at 1.2 M/s (2 repl.) / "
      "600 k/s (4 repl.); P4CE reaches ~2.3 M/s regardless");

  const Duration window = milliseconds(25);
  const Duration warmup = milliseconds(3);

  for (u32 replicas : {2u, 4u}) {
    workload::Table table("Fig. 6(" + std::string(replicas == 2 ? "a" : "b") + "): " +
                              std::to_string(replicas) + " replicas",
                          {"offered (M/s)", "Mu lat p50 (us)", "Mu achieved (M/s)",
                           "1-sided lat p50 (us)", "1-sided achieved (M/s)",
                           "P4CE lat p50 (us)", "P4CE achieved (M/s)"});
    for (double rate : {0.1e6, 0.2e6, 0.4e6, 0.6e6, 0.8e6, 1.0e6, 1.2e6, 1.6e6, 2.0e6, 2.2e6}) {
      auto mu_cluster = make(session, consensus::Mode::kMu, replicas + 1);
      const auto mu = workload::run_open_loop(*mu_cluster, 64, rate, window, warmup);
      auto os_cluster = make(session, consensus::Mode::kOneSided, replicas + 1);
      const auto os = workload::run_open_loop(*os_cluster, 64, rate, window, warmup);
      auto p4_cluster = make(session, consensus::Mode::kP4ce, replicas + 1);
      const auto p4 = workload::run_open_loop(*p4_cluster, 64, rate, window, warmup);
      table.add_row({workload::Table::fmt(rate / 1e6, 1),
                     workload::Table::fmt(mu.p50_latency_us, 1),
                     workload::Table::fmt(mu.ops_per_sec / 1e6),
                     workload::Table::fmt(os.p50_latency_us, 1),
                     workload::Table::fmt(os.ops_per_sec / 1e6),
                     workload::Table::fmt(p4.p50_latency_us, 1),
                     workload::Table::fmt(p4.ops_per_sec / 1e6)});
    }
    table.print();
    session.add_table(table);
  }
  std::printf(
      "\nExpected shape: all flat and close at low load (P4CE slightly lower); Mu's\n"
      "latency explodes once the leader CPU saturates; the one-sided backend saturates\n"
      "earlier still (two posts per replica per consensus); P4CE stays flat to ~2.2 M/s.\n");
  return 0;
}
