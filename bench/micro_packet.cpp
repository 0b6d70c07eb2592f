// Micro-benchmarks for the packet-processing primitives and the simulation
// substrate itself: header codecs, the P4CE ingress/egress transformations,
// Tofino register actions, the event-queue kernel — plus two timed
// whole-subsystem workloads (the 5-replica switch scatter path and the raw
// event core) whose throughput and bytes-copied counters quantify the
// zero-copy packet path across PRs.
//
// Every number printed here is also routed through the BenchSession so
// BENCH_micro_packet.json carries the full result set (values + tables);
// scripts/check.sh's perf-smoke step compares that JSON against
// bench/baselines/micro_packet.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "net/packet.hpp"
#include "obs/context.hpp"
#include "p4ce/dataplane.hpp"
#include "sim/simulator.hpp"
#include "switchsim/register.hpp"
#include "switchsim/switch.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

net::Packet make_write_packet(u32 payload_len = 64) {
  net::Packet p;
  p.ip.src = net::make_ip(0, 10);
  p.ip.dst = net::make_ip(1, 1);
  p.bth.opcode = rdma::Opcode::kWriteOnly;
  p.bth.dest_qp = 0x8000;
  p.bth.psn = 42;
  p.reth = rdma::Reth{0x100, 0x1234, payload_len};
  p.payload = Bytes(payload_len, 0xab);
  return p;
}

p4::GroupSpec make_spec(u32 replicas) {
  p4::GroupSpec spec;
  spec.group_idx = 0;
  spec.mcast_group_id = 100;
  spec.bcast_qpn = 0x8000;
  spec.aggr_qpn = 0xc000;
  spec.f_needed = (replicas + 1) / 2;
  spec.virtual_rkey = 0x1234;
  spec.leader = {net::make_ip(0, 10), 0xEE, 0x111, 0};
  for (u32 r = 0; r < replicas; ++r) {
    p4::ConnectionEntry conn;
    conn.ip = net::make_ip(0, static_cast<u8>(11 + r));
    conn.qpn = 0x200 + r;
    conn.port = 1 + r;
    conn.vaddr = 0x7000'0000 + r * 0x1000;
    conn.buffer_len = 1 << 20;
    conn.rkey = 0x5000 + r;
    spec.replicas.push_back(conn);
  }
  return spec;
}

void BM_PacketEncode(benchmark::State& state) {
  const net::Packet p = make_write_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.encode());
  }
}
BENCHMARK(BM_PacketEncode);

void BM_PacketDecode(benchmark::State& state) {
  const Bytes bytes = make_write_packet().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Packet::decode(bytes));
  }
}
BENCHMARK(BM_PacketDecode);

void BM_IngressScatterClassify(benchmark::State& state) {
  p4::P4ceDataplane dataplane(net::make_ip(1, 1));
  std::ignore = dataplane.install_group(make_spec(4));
  for (auto _ : state) {
    sw::PacketContext ctx;
    ctx.packet = make_write_packet();
    dataplane.ingress(ctx);
    benchmark::DoNotOptimize(ctx.mcast_group);
  }
}
BENCHMARK(BM_IngressScatterClassify);

void BM_EgressRewrite(benchmark::State& state) {
  p4::P4ceDataplane dataplane(net::make_ip(1, 1));
  std::ignore = dataplane.install_group(make_spec(4));
  sw::PacketContext proto;
  proto.packet = make_write_packet();
  dataplane.ingress(proto);
  for (auto _ : state) {
    sw::PacketContext ctx = proto;
    ctx.replication_id = 2;
    ctx.egress_port = 3;
    dataplane.egress(ctx);
    benchmark::DoNotOptimize(ctx.packet.bth.dest_qp);
  }
}
BENCHMARK(BM_EgressRewrite);

void BM_GatherAck(benchmark::State& state) {
  p4::P4ceDataplane dataplane(net::make_ip(1, 1));
  std::ignore = dataplane.install_group(make_spec(4));
  u32 psn = 0;
  for (auto _ : state) {
    sw::PacketContext ctx;
    ctx.packet.ip.src = net::make_ip(0, 11);
    ctx.packet.ip.dst = net::make_ip(1, 1);
    ctx.packet.bth.opcode = rdma::Opcode::kAcknowledge;
    ctx.packet.bth.dest_qp = 0xc000;
    ctx.packet.bth.psn = psn++ & kPsnMask;
    ctx.packet.aeth = rdma::Aeth{.is_nak = false,
                                 .nak_code = rdma::NakCode::kPsnSequenceError,
                                 .credits = 12,
                                 .msn = 0};
    dataplane.ingress(ctx);
    benchmark::DoNotOptimize(ctx.drop);
  }
}
BENCHMARK(BM_GatherAck);

void BM_TofinoMin(benchmark::State& state) {
  u32 a = 17, b = 23;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::tofino_min(a, b));
    a = (a * 1103515245u + 12345u) & 0x1f;
    b = (b * 22695477u + 1u) & 0x1f;
  }
}
BENCHMARK(BM_TofinoMin);

void BM_RegisterIncrementRead(benchmark::State& state) {
  sw::TofinoRegister<u32> reg(256);
  u32 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.increment_read(i++ & 0xff));
  }
}
BENCHMARK(BM_RegisterIncrementRead);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventQueue);

// ---------------------------------------------------------------------------
// Timed whole-subsystem workloads (not google-benchmark: these run a fixed
// amount of simulated work and report wall-clock throughput plus the
// zero-copy counters, so results are comparable across PRs).
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Terminal endpoint for scatter copies; counts deliveries.
struct CountingSink : net::PacketSink {
  u64 delivered = 0;
  u64 payload_bytes = 0;
  void deliver(net::Packet&& packet) override {
    ++delivered;
    payload_bytes += packet.payload.size();
  }
};

/// Minimal pipeline: every inbound packet is replicated to multicast group 1
/// (headers rewritten per copy would happen here; the workload measures the
/// fabric, not the P4CE tables).
struct ScatterProgram : sw::PipelineProgram {
  void ingress(sw::PacketContext& ctx) override { ctx.mcast_group = 1; }
  void egress(sw::PacketContext& ctx) override { ctx.packet.bth.dest_qp ^= ctx.replication_id; }
};

/// The §III scatter path: one ingress stream replicated to `replicas` egress
/// ports at line rate. Reports packets/sec (egress copies delivered per
/// wall-clock second) and the payload bytes copied vs shared underneath.
void run_scatter_workload(workload::BenchSession& session, workload::Table& table) {
  constexpr u32 kReplicas = 5;
  constexpr u32 kPackets = 20'000;
  constexpr u32 kPayload = 1024;

  const u64 copied_before = net::PayloadRef::copied_bytes();
  const u64 shared_before = net::PayloadRef::shared_bytes();

  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  sw::SwitchDevice dev(sim, "bench-sw", net::make_ip(1, 1));
  ScatterProgram program;
  dev.load_program(&program);
  const u32 ingress_port = dev.add_port();

  std::vector<net::Link> links;
  links.reserve(kReplicas);
  std::vector<CountingSink> sinks(kReplicas);
  std::vector<sw::McastCopy> copies;
  for (u32 r = 0; r < kReplicas; ++r) {
    const u32 port = dev.add_port();
    links.emplace_back(sim, 100.0, 500);
    links.back().attach(&dev.port(port), &sinks[r]);
    dev.port(port).attach_link(&links.back(), 0);
    copies.push_back({port, static_cast<u16>(r)});
  }
  std::ignore = dev.multicast().create_group(1, std::move(copies));

  for (u32 i = 0; i < kPackets; ++i) {
    net::Packet p = make_write_packet(kPayload);
    p.bth.psn = i & kPsnMask;
    dev.port(ingress_port).deliver(std::move(p));
  }
  sim.run();
  const double secs = seconds_since(t0);

  u64 delivered = 0;
  for (const auto& sink : sinks) delivered += sink.delivered;
  const double pkts_per_sec = static_cast<double>(delivered) / secs;
  const u64 copied = net::PayloadRef::copied_bytes() - copied_before;
  const u64 shared = net::PayloadRef::shared_bytes() - shared_before;

  session.add_value("scatter_packets_per_sec", pkts_per_sec);
  session.add_value("scatter_payload_bytes_copied", static_cast<double>(copied));
  session.add_value("scatter_payload_bytes_shared", static_cast<double>(shared));
  table.add_row({"scatter x5 (1 KiB)", workload::Table::fmt(pkts_per_sec / 1e6, 3) + " Mpkt/s",
                 std::to_string(copied), std::to_string(shared),
                 std::to_string(sim.events_executed())});

  if (delivered != static_cast<u64>(kPackets) * kReplicas) {
    std::fprintf(stderr, "scatter workload lost packets: %llu/%llu\n",
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(kPackets) * kReplicas);
  }
}

/// The raw event kernel: schedule/cancel/execute churn with small callables,
/// the all-day diet of every timer and packet hop in the simulation.
void run_event_core_workload(workload::BenchSession& session, workload::Table& table) {
  constexpr u32 kEvents = 300'000;

  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  u64 fired = 0;
  std::vector<sim::EventHandle> to_cancel;
  to_cancel.reserve(kEvents / 4);
  for (u32 i = 0; i < kEvents; ++i) {
    sim::EventHandle h = sim.schedule((i * 7919) % 100'000, [&fired] { ++fired; });
    if ((i & 3) == 0) to_cancel.push_back(h);  // every 4th gets cancelled
  }
  for (auto& h : to_cancel) h.cancel();
  sim.run();
  const double secs = seconds_since(t0);

  const double events_per_sec = static_cast<double>(sim.events_executed()) / secs;
  const u64 allocs = sim.obs().metrics.counter("sim.events_alloc").value();
  session.add_value("events_per_sec", events_per_sec);
  session.add_value("events_executed", static_cast<double>(sim.events_executed()));
  session.add_value("events_heap_allocs", static_cast<double>(allocs));
  table.add_row({"event core", workload::Table::fmt(events_per_sec / 1e6, 3) + " Mev/s",
                 std::to_string(allocs), "-", std::to_string(sim.events_executed())});
}

// ---------------------------------------------------------------------------
// google-benchmark -> BenchSession bridge
// ---------------------------------------------------------------------------

/// Console reporter that also records every iteration run into the session,
/// so BENCH_micro_packet.json carries the same rows the console prints.
class SessionReporter : public benchmark::ConsoleReporter {
 public:
  SessionReporter(workload::BenchSession& session, workload::Table& table)
      : session_(session), table_(table) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const auto& run : reports) {
      if (run.run_type != Run::RT_Iteration) continue;
      const double ns = run.GetAdjustedRealTime();
      session_.add_value(run.benchmark_name() + "_ns", ns);
      table_.add_row({run.benchmark_name(), workload::Table::fmt(ns, 1),
                      workload::Table::fmt(run.GetAdjustedCPUTime(), 1),
                      std::to_string(run.iterations)});
    }
  }

 private:
  workload::BenchSession& session_;
  workload::Table& table_;
};

}  // namespace

int main(int argc, char** argv) {
  workload::BenchSession session("micro_packet");
  session.set_backend("none");  // packet-layer microbench, no consensus protocol

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  workload::Table micro("Packet-processing micro-benchmarks",
                        {"benchmark", "time (ns)", "cpu (ns)", "iterations"});
  SessionReporter reporter(session, micro);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  session.add_table(micro);

  workload::Table workloads(
      "Fabric workloads (wall-clock throughput of the simulation substrate)",
      {"workload", "throughput", "payload bytes copied", "payload bytes shared", "sim events"});
  run_scatter_workload(session, workloads);
  run_event_core_workload(session, workloads);
  workloads.print();
  session.add_table(workloads);

  session.finish();
  return 0;
}
