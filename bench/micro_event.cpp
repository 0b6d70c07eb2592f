// Simulator micro bench: the serial event kernel's four hot shapes and the
// switch's scatter path.
//
//   churn   — self-rescheduling empty callbacks: the pure
//             schedule/pop/dispatch cost.
//   cancel  — schedule a batch at pseudo-random times, cancel every 4th:
//             slot recycling and generation checks under churn.
//   ping    — chains of events each hopping 100 ns (about one short link
//             hop) into the future.
//   timers  — ping, but every hop also cancels and re-arms a 131 us timer:
//             a QP's retransmit timer re-armed on every ACK. The queue then
//             holds many more cancelled timers than live events.
//   scatter — 1 KiB packets into one switch port, each replicated to five
//             egress links (the §III scatter path).
//
// Each shape is gated twice. Its counters (events executed, callables
// stored on the heap, and for scatter the copies delivered and those whose
// payload is not the injected buffer) depend on the code alone, so every
// run must match them exactly or the bench exits 1. Its rate depends on the
// host and on what else runs there, so every run is bracketed by
// perfbench's reference loop and the gated value is the rate divided by the
// reference speed around it, as the median of kReps interleaved runs;
// scripts/perf_smoke.py compares it with bench/baselines/micro_event.json.
// A kernel shape's rate counts events; scatter's counts copies delivered,
// so it does not move when the switch spends fewer events on a copy.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/context.hpp"
#include "perfbench/reference.hpp"
#include "sim/simulator.hpp"
#include "switchsim/switch.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

constexpr Duration kHop = 100;  // ns per ping hop, ~one short link hop
constexpr Duration kTimer = 131'072;  // ns, the QP retransmit timeout

constexpr u32 kChains = 64, kSteps = 16'000;  // churn: 1M events
constexpr u32 kCancelTotal = 200'000;         // 25% cancelled
constexpr u32 kRings = 32, kHops = 10'000;    // timers: 320k hops
constexpr u32 kPingHops = 40'000;             // ping: 1.3M hops
constexpr u32 kReplicas = 5, kPackets = 20'000, kPayload = 1024;  // scatter

// Five runs of each shape, each between two 20 ms reference windows: the
// median stays put when a competing process takes half of a shared core.
constexpr int kReps = 5;
constexpr double kReferenceSeconds = 0.02;

/// What a run of a shape did that the code alone decides.
struct Counters {
  u64 events = 0;        ///< sim events executed
  u64 heap_events = 0;   ///< `sim.events_alloc`: callables too big to store inline
  u64 delivered = 0;     ///< scatter: copies delivered to the egress links
  u64 copies = 0;        ///< scatter: copies delivered with a payload copy
  bool operator==(const Counters&) const = default;
};

Counters kernel_counters(sim::Simulator& sim) {
  return {sim.events_executed(), sim.obs().metrics.counter("sim.events_alloc").value()};
}

/// churn: kChains independent chains, each an empty callback that
/// reschedules itself kSteps times one tick in the future.
Counters run_churn() {
  sim::Simulator sim;
  std::vector<std::shared_ptr<std::function<void()>>> keep;
  keep.reserve(kChains);
  for (u32 c = 0; c < kChains; ++c) {
    auto self = std::make_shared<std::function<void()>>();
    auto remaining = std::make_shared<u32>(kSteps - 1);
    *self = [&sim, self, remaining] {
      if ((*remaining)-- > 0) sim.schedule(1, [self] { (*self)(); });
    };
    // Stagger chains so the queue stays mixed rather than draining in phase.
    sim.schedule(1 + c, [self] { (*self)(); });
    keep.push_back(std::move(self));
  }
  sim.run();
  for (auto& self : keep) *self = nullptr;  // break the keep-alive cycles
  return kernel_counters(sim);
}

/// cancel: seed kCancelTotal events at pseudo-random times, cancel every
/// 4th before running.
Counters run_cancel() {
  sim::Simulator sim;
  auto counter = std::make_shared<u64>(0);
  std::vector<sim::EventHandle> to_cancel;
  to_cancel.reserve(kCancelTotal / 4 + 1);
  for (u32 i = 0; i < kCancelTotal; ++i) {
    sim::EventHandle h = sim.schedule((i * 7919) % 100'000, [counter] { ++*counter; });
    if ((i & 3) == 0) to_cancel.push_back(h);
  }
  for (auto& h : to_cancel) h.cancel();
  sim.run();
  return kernel_counters(sim);
}

/// ping: kRings chains each hop kPingHops times, one kHop into the future.
Counters run_ping() {
  sim::Simulator sim;
  std::vector<std::shared_ptr<std::function<void(u32)>>> keep;
  keep.reserve(kRings);
  for (u32 c = 0; c < kRings; ++c) {
    auto self = std::make_shared<std::function<void(u32)>>();
    *self = [&sim, self](u32 remaining) {
      if (remaining == 0) return;
      sim.schedule(kHop, [self, remaining] { (*self)(remaining - 1); });
    };
    sim.schedule(1 + c, [self] { (*self)(kPingHops); });
    keep.push_back(std::move(self));
  }
  sim.run();
  for (auto& self : keep) *self = nullptr;  // break the keep-alive cycles
  return kernel_counters(sim);
}

/// timers: ping chains whose every hop also re-arms the chain's long timer
/// (cancel, then schedule anew). No timer ever fires.
Counters run_timers() {
  sim::Simulator sim;
  struct Chain {
    std::function<void(u32)> hop;
    sim::EventHandle timer;
  };
  std::vector<std::unique_ptr<Chain>> keep;
  keep.reserve(kRings);
  for (u32 c = 0; c < kRings; ++c) {
    auto chain = std::make_unique<Chain>();
    Chain* self = chain.get();
    self->hop = [&sim, self](u32 remaining) {
      self->timer.cancel();
      if (remaining == 0) return;
      self->timer = sim.schedule(kTimer, [] {});
      sim.schedule(kHop, [self, remaining] { self->hop(remaining - 1); });
    };
    sim.schedule(1 + c, [self] { self->hop(kHops); });
    keep.push_back(std::move(chain));
  }
  sim.run();
  return kernel_counters(sim);
}

/// Terminal endpoint for scatter copies. Each injected packet carries its
/// payload buffer's address in reth.vaddr, which the program leaves alone:
/// a copy whose payload lives elsewhere was copied on the way.
struct CountingSink : net::PacketSink {
  u64 delivered = 0;
  u64 copies = 0;
  void deliver(net::Packet&& p) override {
    ++delivered;
    if (reinterpret_cast<std::uintptr_t>(p.payload.data()) != p.reth->vaddr) ++copies;
  }
};

/// Every inbound packet goes to multicast group 1, and egress rewrites a
/// header field per copy: the fabric's cost, not the P4CE tables'.
struct ScatterProgram : sw::PipelineProgram {
  void ingress(sw::PacketContext& ctx) override { ctx.mcast_group = 1; }
  void egress(sw::PacketContext& ctx) override { ctx.packet.bth.dest_qp ^= ctx.replication_id; }
};

/// scatter: kPackets writes into one ingress port, each replicated to
/// kReplicas egress ports at line rate.
Counters run_scatter() {
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
    net::Packet p;
    p.ip.src = net::make_ip(0, 10);
    p.ip.dst = net::make_ip(1, 1);
    p.bth.opcode = rdma::Opcode::kWriteOnly;
    p.bth.dest_qp = 0x8000;
    p.bth.psn = i & kPsnMask;
    p.payload = Bytes(kPayload, 0xab);
    p.reth = rdma::Reth{reinterpret_cast<std::uintptr_t>(p.payload.data()), 0x1234, kPayload};
    dev.port(ingress_port).deliver(std::move(p));
  }
  sim.run();

  Counters c = kernel_counters(sim);
  for (const auto& sink : sinks) {
    c.delivered += sink.delivered;
    c.copies += sink.copies;
  }
  return c;
}

struct Shape {
  const char* name;
  Counters (*run)();
  Counters want;
  u64 Counters::*work = &Counters::events;  ///< what its rate counts
  const char* unit = "events";
};

// Churn executes chains * steps events, cancel 3/4 of the seeded events,
// ping and timers rings * hops + rings seeds; scatter runs 6 events per
// packet (one ingress, whose egress stages post the copies, then per copy
// the link's delivery), no shape stores a callable on the heap, and no
// scatter copy carries a copied payload.
constexpr Shape kShapes[] = {
    {"churn", run_churn, {.events = u64{kChains} * kSteps}},
    {"cancel", run_cancel, {.events = kCancelTotal - (kCancelTotal + 3) / 4}},
    {"ping", run_ping, {.events = u64{kRings} * kPingHops + kRings}},
    {"timers", run_timers, {.events = u64{kRings} * kHops + kRings}},
    {"scatter",
     run_scatter,
     {.events = u64{kPackets} * (1 + kReplicas), .delivered = u64{kPackets} * kReplicas},
     &Counters::delivered,
     "copies"},
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  workload::BenchSession session("micro_event");
  session.set_backend("none");  // simulator microbench, no consensus protocol
  workload::print_header("micro_event: event-kernel and scatter-path throughput",
                         "one (when, as_of, seq) two-level queue over a recycled event slab");

  struct Samples {
    std::vector<double> rate, reference, normalized;  // M/s, Mev/s, ratio
  };
  std::vector<Samples> samples(std::size(kShapes));
  std::vector<double> windows;  // every reference window's speed
  windows.push_back(perfbench::reference_mevents_per_s(kReferenceSeconds));
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t s = 0; s < std::size(kShapes); ++s) {
      const Shape& shape = kShapes[s];
      const auto t0 = std::chrono::steady_clock::now();
      const Counters got = shape.run();
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (got != shape.want) {
        std::fprintf(stderr,
                     "%s: counters differ (got/want): events %llu/%llu heap events %llu/%llu "
                     "delivered %llu/%llu copies %llu/%llu\n",
                     shape.name, (unsigned long long)got.events,
                     (unsigned long long)shape.want.events, (unsigned long long)got.heap_events,
                     (unsigned long long)shape.want.heap_events,
                     (unsigned long long)got.delivered, (unsigned long long)shape.want.delivered,
                     (unsigned long long)got.copies, (unsigned long long)shape.want.copies);
        return 1;
      }
      const double before = windows.back();
      windows.push_back(perfbench::reference_mevents_per_s(kReferenceSeconds));
      const double ref = (before + windows.back()) / 2;  // the windows around this run
      const double rate = static_cast<double>(got.*shape.work) / seconds / 1e6;
      samples[s].rate.push_back(rate);
      samples[s].reference.push_back(ref);
      samples[s].normalized.push_back(rate / ref);
    }
  }

  // The `*_normalized` keys are the ones bench/baselines/micro_event.json
  // gates on.
  workload::Table table("simulator throughput (medians of " + std::to_string(kReps) + " runs)",
                        {"shape", "events", "rate of", "M/s", "reference Mev/s", "normalized"});
  for (std::size_t s = 0; s < std::size(kShapes); ++s) {
    const Shape& shape = kShapes[s];
    const std::string name = shape.name;
    const Samples& m = samples[s];
    session.add_value(name + "_events", static_cast<double>(shape.want.events));
    session.add_value(name + "_m" + shape.unit + "_per_s", median(m.rate));
    session.add_value(name + "_normalized", median(m.normalized));
    table.add_row({name, std::to_string(shape.want.events), shape.unit,
                   workload::Table::fmt(median(m.rate), 3),
                   workload::Table::fmt(median(m.reference), 3),
                   workload::Table::fmt(median(m.normalized), 3)});
  }
  session.add_value("reference_mevents_per_s", median(windows));
  table.print();
  session.add_table(table);
  return 0;
}
