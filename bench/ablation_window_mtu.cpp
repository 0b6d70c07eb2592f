// Design-space ablations for two sizing decisions the paper makes:
//
// 1. In-flight window. "A given RDMA connection can only have up to 16
//    pending write requests" and the switch "can handle up to 256
//    un-acknowledged packets on the fly per connection" (§IV-C) — is 16
//    enough, and is 256 ample headroom? We sweep the window and show
//    throughput saturating well below both limits.
//
// 2. Path MTU. Goodput depends on the per-packet overhead (98 B of
//    headers + PHY per MTU worth of payload); we sweep the RoCE MTU for
//    the large-value goodput experiment.
#include <cstdio>

#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

workload::RunResult run_with(workload::BenchSession& session, u32 window, u32 mtu,
                             u32 value_size, u32 batch) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = consensus::Mode::kP4ce;
  options.cal.max_outstanding = window;
  options.cal.mtu = mtu;
  options.log_size = 256ull << 20;
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  if (!cluster->start()) return {};
  if (batch <= 1) {
    return workload::run_closed_loop(*cluster, value_size, window, 40'000, 1'000);
  }
  const u64 write_bytes = static_cast<u64>(batch) * consensus::entry_footprint(value_size);
  const u32 packets = static_cast<u32>((write_bytes + mtu - 1) / mtu);
  const u32 safe = std::max<u32>(1, std::min<u32>(window, 256 / std::max(1u, packets)));
  return workload::run_batched_goodput(*cluster, value_size, batch, safe, 6'000, 200);
}

}  // namespace

int main() {
  workload::BenchSession session("ablation_window_mtu");
  session.set_backend("p4ce");
  workload::print_header(
      "Ablation §IV-C: in-flight window and MTU sizing",
      "16 pending writes saturate the pipe; 256 aggregation slots are ample headroom; "
      "the 1 KiB MTU costs ~9% of raw link rate in headers");

  {
    workload::Table table(
        "64 B consensus rate & latency vs in-flight window (2 replicas, MTU 1 KiB)",
        {"window (writes)", "consensus/s", "p50 latency (us)", "in-flight packets"});
    for (u32 window : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      const auto result = run_with(session, window, 1024, 64, 1);
      table.add_row({std::to_string(window), si_format(result.ops_per_sec),
                     workload::Table::fmt(result.p50_latency_us, 1), std::to_string(window)});
    }
    table.print();
    session.add_table(table);
  }

  {
    workload::Table table(
        "Batched goodput (512 B values, ~8 KiB writes) vs RoCE MTU (2 replicas)",
        {"MTU (B)", "goodput (GB/s)", "packets per write", "header overhead"});
    for (u32 mtu : {256u, 512u, 1024u, 2048u, 4096u}) {
      const auto result = run_with(session, 16, mtu, 512, 16);
      const u64 write_bytes = 16 * consensus::entry_footprint(512);
      const u64 packets = (write_bytes + mtu - 1) / mtu;
      const double overhead =
          100.0 * 98.0 * static_cast<double>(packets) /
          static_cast<double>(write_bytes + 98 * packets);
      table.add_row({std::to_string(mtu), workload::Table::fmt(result.goodput_gbps),
                     std::to_string(packets), workload::Table::fmt(overhead, 1) + "%"});
    }
    table.print();
    session.add_table(table);
  }

  std::printf(
      "\nExpected shape: the rate saturates by window ~4-8 (CPU-bound long before the\n"
      "paper's 16, which itself keeps at most 16 of the 256 NumRecv slots busy at\n"
      "64 B); goodput climbs with MTU as per-packet headers amortize and plateaus\n"
      "once overhead is a few percent.\n");
  return 0;
}
