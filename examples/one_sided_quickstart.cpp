// One-sided quickstart: the same three-machine group as examples/quickstart,
// but replicating through the Velos-style one-sided Paxos backend — the
// leader commits with RDMA verbs atomics (a broadcast compare-and-swap per
// slot) and the replicas' CPUs never touch the critical path.
//
//   $ ./examples/one_sided_quickstart
//
// The backend is chosen in code: ClusterOptions::mode, set before the
// Cluster/ReplicationGroup is created.
#include <cstdio>

#include "consensus/one_sided.hpp"
#include "core/group.hpp"

using namespace p4ce;

int main() {
  core::ClusterOptions options;
  options.machines = 3;                        // 1 leader + 2 replicas
  options.mode = consensus::Mode::kOneSided;   // verbs-atomics Paxos registers

  core::ReplicationGroup group(options);
  if (!group.start()) {
    std::fprintf(stderr, "no leader elected\n");
    return 1;
  }
  std::printf("leader: node %u (backend: %s) after %.1f ms of simulated time\n",
              group.leader()->id(),
              std::string(core::backend_name(options.mode)).c_str(),
              to_millis(group.now()));

  group.on_deliver([](NodeId node, const consensus::LogEntry& entry) {
    std::printf("  node %u applied seq=%llu: %.*s\n", node,
                static_cast<unsigned long long>(entry.seq),
                static_cast<int>(entry.payload.size()),
                reinterpret_cast<const char*>(entry.payload.data()));
  });

  for (const char* command : {"put name=velos", "put quorum=fast", "del draft"}) {
    const Status st = group.propose(command, [command](Status status, u64 seq) {
      std::printf("committed '%s' as seq %llu: %s\n", command,
                  static_cast<unsigned long long>(seq), status.to_string().c_str());
    });
    if (!st.is_ok()) std::fprintf(stderr, "propose failed: %s\n", st.to_string().c_str());
  }

  group.run_until_idle();

  // With all replicas healthy every commit is one broadcast-CAS round trip.
  auto* comm =
      static_cast<consensus::OneSidedCommunicator*>(group.leader()->communicator());
  std::printf("done: %llu proposed, %llu committed, %llu failed "
              "(%llu fast-path, %llu slow-path)\n",
              static_cast<unsigned long long>(group.proposals()),
              static_cast<unsigned long long>(group.committed()),
              static_cast<unsigned long long>(group.failed()),
              static_cast<unsigned long long>(comm->fast_path_commits()),
              static_cast<unsigned long long>(comm->slow_path_commits()));
  return group.committed() == 3 && comm->fast_path_commits() == 3 ? 0 : 1;
}
