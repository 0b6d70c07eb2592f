// Flow-control ablation (§IV-C): why the switch aggregates credit counts.
// "As replicas may handle queries at a different rate, P4CE takes the worst
// case into account [...] Otherwise, because the f-th ACK is forwarded, the
// credit count of the slowest replicas would likely be ignored."
//
// Scenario: one replica's NIC periodically hiccups (1 µs/packet for 200 µs,
// every 2 ms — a GC-pause-like slowdown to ~1 M pps against a ~2.26 M/s
// leader). With min-credit aggregation the leader sees the hiccuping card's
// collapsing credits through the switch and throttles within an RTT, so the
// receive buffer absorbs the transient. Without aggregation the forwarded
// (f-th, fast-replica) ACK advertises ample credits, the leader keeps
// blasting, the slow card's buffer overflows, and the resulting NAK costs
// the leader its acceleration (fallback + log repair + later re-probe).
#include <cstdio>
#include <functional>
#include <memory>

#include "consensus/communicator.hpp"
#include "core/cluster.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

struct Result {
  double ops_per_sec;
  u64 overflows;
  u64 fallbacks;
  u64 reaccels;
  bool ends_accelerated;
  double replica_missing_pct;
};

Result measure(workload::BenchSession& session, bool aggregate_credits) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = consensus::Mode::kP4ce;
  options.cal.reacceleration_period = 10'000'000;  // re-probe every 10 ms
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  if (!cluster->start()) return {};
  cluster->dataplane().set_credit_aggregation(aggregate_credits);

  // Periodic hiccup on replica 2's NIC: 200 us at 1 us/packet, every 2 ms,
  // the first at 1 ms. The NIC settles a packet's rx cost when the packet
  // is sent, so each stall is declared one period ahead of its start.
  rdma::Nic& slow_nic = cluster->host(2).nic;
  sim::Simulator& sim = cluster->sim();
  const auto stall = [&slow_nic](SimTime from) {
    slow_nic.stall_rx(from, from + microseconds(200), /*per_packet=*/1'000);
  };
  auto hiccup = std::make_shared<std::function<void()>>();
  *hiccup = [&sim, stall, hiccup] {
    stall(sim.now() + milliseconds(2));
    sim.schedule(milliseconds(2), [hiccup] { (*hiccup)(); });
  };
  stall(sim.now() + milliseconds(1));
  sim.schedule(milliseconds(1), [hiccup] { (*hiccup)(); });

  const auto run = workload::run_closed_loop(*cluster, /*value=*/64, /*window=*/16,
                                             /*ops=*/60'000, /*warmup=*/1'000);
  // Stop the hiccups and let repair / retransmission traffic settle fully.
  cluster->run_for(milliseconds(15));

  auto* comm = static_cast<consensus::P4ceCommunicator*>(cluster->node(0).communicator());
  Result result;
  result.ops_per_sec = run.ops_per_sec;
  result.overflows = cluster->host(2).nic.rx_overflows();
  result.fallbacks = comm->fallback_count();
  result.reaccels = comm->reaccelerations();
  result.ends_accelerated = cluster->node(0).accelerated();
  const u64 leader_seq = cluster->node(0).last_delivered_seq();
  const u64 slow_seq = cluster->node(2).last_delivered_seq();
  result.replica_missing_pct =
      leader_seq > 0 ? 100.0 * static_cast<double>(leader_seq - slow_seq) /
                           static_cast<double>(leader_seq)
                     : 0.0;
  return result;
}

void add_row(workload::Table& table, const char* label, const Result& r) {
  table.add_row({label, si_format(r.ops_per_sec), std::to_string(r.overflows),
                 std::to_string(r.fallbacks), std::to_string(r.reaccels),
                 r.ends_accelerated ? "yes" : "no",
                 workload::Table::fmt(r.replica_missing_pct, 1) + "%"});
}

}  // namespace

int main() {
  workload::BenchSession session("ablation_flow_control");
  session.set_backend("p4ce");
  workload::print_header(
      "Ablation §IV-C: min-credit aggregation vs forwarding the f-th ACK's credits",
      "without aggregation \"the credit count of the slowest replicas would likely be "
      "ignored\" — a transiently slow replica overflows and its NAK costs the fast path");

  workload::Table table(
      "64 B consensus, one replica NIC hiccuping to ~1 M pps for 200 us every 2 ms",
      {"credit handling", "consensus/s", "overflows", "NAK fallbacks", "reaccel",
       "ends accelerated", "replica missing"});
  const Result with = measure(session, true);
  const Result without = measure(session, false);
  add_row(table, "min across replicas", with);
  add_row(table, "f-th ACK only (ablated)", without);
  table.print();
  session.add_table(table);
  std::printf(
      "\nExpected shape: aggregation lets the leader throttle as the hiccuping card's\n"
      "credits collapse, shrinking the overflow burst; the ablated switch keeps\n"
      "advertising the fast replica's credits and overruns the card harder. With a\n"
      "31-slot buffer and a ~2 us control loop neither fully avoids drops under a\n"
      "200 us stall; the NAK -> fallback -> repair path refills surviving replicas'\n"
      "logs, and a replica whose stalls exceed the 131 us RDMA timeout is excluded\n"
      "as faulty (hence a residual gap in the harsher ablated run).\n");
  return 0;
}
