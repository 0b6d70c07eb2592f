// Table IV: "Average fail-over times."
//
//                         Mu        P4CE
//   Crashed replica      0.1 ms    40.1 ms
//   Crashed leader       0.9 ms    40.9 ms
//   Crashed switch       60  ms    60   ms
//
// Failures are injected exactly as in the paper: replica/leader crashes
// kill the application (CPU + NIC stop); the switch crash powers the switch
// off. Every recovery step is executed by the real protocol machinery
// (heartbeat detection, permission switching, control-plane reconfiguration,
// RDMA timeout + backup-route reconnection).
#include <cstdio>
#include <memory>

#include "core/cluster.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

std::unique_ptr<core::Cluster> make(workload::BenchSession& session, consensus::Mode mode) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = mode;
  options.cal = consensus::Calibration::failover();
  auto cluster = core::Cluster::create(options);
  session.attach(*cluster);
  cluster->start(seconds(2));
  // Let the initial view settle before injecting failures.
  cluster->run_for(milliseconds(5));
  return cluster;
}

/// Time from killing a replica to the leader having fully excluded it
/// (Mu: communicator exclusion; P4CE: + switch group reconfiguration).
double replica_crash_ms(workload::BenchSession& session, consensus::Mode mode) {
  auto cluster = make(session, mode);
  consensus::Node* leader = cluster->leader();
  if (leader == nullptr) return -1;

  SimTime done_at = -1;
  if (mode == consensus::Mode::kP4ce) {
    leader->set_on_membership_updated([&] { done_at = cluster->now(); });
  } else {
    leader->set_on_replica_excluded([&](NodeId) { done_at = cluster->now(); });
  }
  const SimTime killed_at = cluster->now();
  cluster->crash_node(2);  // highest-id replica; leadership is unaffected
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (done_at < 0 && cluster->now() < deadline) cluster->run_for(microseconds(50));
  return done_at < 0 ? -1 : to_millis(done_at - killed_at);
}

/// Time from killing the leader to the new leader being active (elected,
/// permissions switched, and — for P4CE — the switch reconfigured).
double leader_crash_ms(workload::BenchSession& session, consensus::Mode mode) {
  auto cluster = make(session, mode);
  if (cluster->leader() == nullptr || cluster->leader()->id() != 0) return -1;

  SimTime done_at = -1;
  cluster->node(1).set_on_leader_active([&](u64) { done_at = cluster->now(); });
  const SimTime killed_at = cluster->now();
  cluster->crash_node(0);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (done_at < 0 && cluster->now() < deadline) cluster->run_for(microseconds(50));
  return done_at < 0 ? -1 : to_millis(done_at - killed_at);
}

/// Time from powering the switch off to the first commit over the backup
/// route (both protocols go through the RDMA timeout + reconnection path).
double switch_crash_ms(workload::BenchSession& session, consensus::Mode mode) {
  auto cluster = make(session, mode);
  consensus::Node* leader = cluster->leader();
  if (leader == nullptr) return -1;

  // Keep a trickle of proposals flowing so recovery is observable.
  auto last_commit = std::make_shared<SimTime>(-1);
  auto pump = std::make_shared<std::function<void()>>();
  sim::Simulator& sim = cluster->sim();
  *pump = [&cluster, last_commit, pump, &sim] {
    consensus::Node* l = cluster->leader();
    if (l != nullptr) {
      std::ignore = l->propose(Bytes(64, 0x42), [last_commit, &sim](Status st, u64) {
        if (st.is_ok()) *last_commit = sim.now();
      });
    }
    sim.schedule(microseconds(20), [pump] { (*pump)(); });
  };
  (*pump)();
  cluster->run_for(milliseconds(1));

  const SimTime killed_at = cluster->now();
  cluster->crash_switch();
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (*last_commit < killed_at && cluster->now() < deadline) {
    cluster->run_for(microseconds(100));
  }
  return *last_commit < killed_at ? -1 : to_millis(*last_commit - killed_at);
}

}  // namespace

int main() {
  workload::BenchSession session("tab4_failover");
  session.set_backend("mixed");
  // Failure runs get the full observability stack: stage attribution,
  // periodic telemetry sampling, and the fault flight recorder so each
  // injected crash leaves a FLIGHT_*.json with the frames around the fault.
  session.enable_attribution();
  session.enable_sampler(microseconds(100));
  session.enable_flight_recorder();
  workload::print_header("Table IV: average fail-over times",
                         "replica: 0.1 / 40.1 ms; leader: 0.9 / 40.9 ms; switch: 60 / 60 ms");

  workload::Table table("Fail-over times (ms), 3 machines",
                        {"scenario", "Mu", "paper Mu", "1-sided", "P4CE", "paper P4CE"});
  using consensus::Mode;
  table.add_row({"Crashed replica", workload::Table::fmt(replica_crash_ms(session, Mode::kMu), 2),
                 "0.1", workload::Table::fmt(replica_crash_ms(session, Mode::kOneSided), 2),
                 workload::Table::fmt(replica_crash_ms(session, Mode::kP4ce), 1), "40.1"});
  table.add_row({"Crashed leader", workload::Table::fmt(leader_crash_ms(session, Mode::kMu), 2),
                 "0.9", workload::Table::fmt(leader_crash_ms(session, Mode::kOneSided), 2),
                 workload::Table::fmt(leader_crash_ms(session, Mode::kP4ce), 1), "40.9"});
  table.add_row({"Crashed switch", workload::Table::fmt(switch_crash_ms(session, Mode::kMu), 1),
                 "60", workload::Table::fmt(switch_crash_ms(session, Mode::kOneSided), 1),
                 workload::Table::fmt(switch_crash_ms(session, Mode::kP4ce), 1), "60"});
  table.print();
  session.add_table(table);

  std::printf(
      "\nExpected shape: P4CE adds the ~40 ms switch reconfiguration to replica/leader\n"
      "fail-over; the one-sided backend tracks Mu plus the ballot-takeover round trips;\n"
      "a dead switch costs every protocol the same timeout + reconnect.\n\n");
  return 0;
}
