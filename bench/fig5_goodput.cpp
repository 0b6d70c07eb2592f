// Figure 5: "Write goodput with different item sizes. P4CE maximizes the
// available network capacity while Mu is limited by the leader's ability to
// duplicate packets. (a) With 2 replicas; (b) with 4 replicas."
//
// Claims reproduced: P4CE multiplies goodput by ~2x (2 replicas) and ~4x
// (4 replicas) over Mu, and reaches link speed (~11 GB/s goodput out of a
// 12.5 GB/s link) for value sizes above ~500 B.
//
// Like the paper's harness, values are doorbell-batched into large RDMA
// writes (~8 KiB) so the leader CPU is not the bottleneck; goodput counts
// value bytes only.
#include <algorithm>
#include <cstdio>

#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

double measure(workload::BenchSession& session, consensus::Mode mode, u32 machines,
               u32 value_size) {
  core::ClusterOptions options;
  options.machines = machines;
  options.mode = mode;
  options.log_size = 256ull << 20;
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  if (!cluster->start()) return 0.0;

  const u32 batch = std::clamp<u32>(8192 / value_size, 1, 64);
  const u64 write_bytes = static_cast<u64>(batch) * consensus::entry_footprint(value_size);
  const u32 window = workload::safe_window(write_bytes);
  const u64 batches = std::max<u64>(2000, (64ull << 20) / write_bytes);
  const auto result =
      workload::run_batched_goodput(*cluster, value_size, batch, window, batches, 200);
  return result.goodput_gbps;
}

}  // namespace

int main() {
  workload::BenchSession session("fig5_goodput");
  session.set_backend("mixed");
  workload::print_header(
      "Figure 5: write goodput vs item size",
      "P4CE ~2x Mu at 2 replicas, ~4x at 4; line speed (11 GB/s) above ~500 B values");

  for (u32 replicas : {2u, 4u}) {
    workload::Table table(
        "Fig. 5(" + std::string(replicas == 2 ? "a" : "b") + "): goodput, " +
            std::to_string(replicas) + " replicas  [GB/s of value bytes; link capacity 12.5 GB/s]",
        {"item size (B)", "Mu", "1-sided", "P4CE", "P4CE/Mu"});
    for (u32 size : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
      const double mu = measure(session, consensus::Mode::kMu, replicas + 1, size);
      const double os = measure(session, consensus::Mode::kOneSided, replicas + 1, size);
      const double p4 = measure(session, consensus::Mode::kP4ce, replicas + 1, size);
      table.add_row({std::to_string(size), workload::Table::fmt(mu), workload::Table::fmt(os),
                     workload::Table::fmt(p4),
                     workload::Table::fmt(mu > 0 ? p4 / mu : 0, 1) + "x"});
    }
    table.print();
    session.add_table(table);
  }
  std::printf(
      "\nExpected shape: Mu capped at link/n by the leader dividing its capacity between\n"
      "replicas; the one-sided backend pays the same leader fan-out (plus a CAS per\n"
      "value batch), so it tracks Mu; P4CE saturates the leader link (one request per\n"
      "consensus per link).\n");
  return 0;
}
