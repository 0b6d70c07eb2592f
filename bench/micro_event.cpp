// Event-kernel micro bench: the serial kernel's three hot shapes.
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
//
// Wall-clock rates depend on the machine; the simulated outcome does not:
// every shape executes a fixed event count, which the bench asserts.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "workload/report.hpp"

using namespace p4ce;

namespace {

constexpr Duration kHop = 100;  // ns per ping hop, ~one short link hop
constexpr Duration kTimer = 131'072;  // ns, the QP retransmit timeout

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct ShapeResult {
  double events_per_sec = 0;
  u64 executed = 0;
};

ShapeResult finish(const sim::Simulator& sim, std::chrono::steady_clock::time_point t0) {
  ShapeResult r;
  r.executed = sim.events_executed();
  r.events_per_sec = static_cast<double>(r.executed) / seconds_since(t0);
  return r;
}

/// churn: `chains` independent chains, each an empty callback that
/// reschedules itself `steps` times one tick in the future.
ShapeResult run_churn(u32 chains, u32 steps) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  std::vector<std::shared_ptr<std::function<void()>>> keep;
  keep.reserve(chains);
  for (u32 c = 0; c < chains; ++c) {
    auto self = std::make_shared<std::function<void()>>();
    auto remaining = std::make_shared<u32>(steps - 1);
    *self = [&sim, self, remaining] {
      if ((*remaining)-- > 0) sim.schedule(1, [self] { (*self)(); });
    };
    // Stagger chains so the queue stays mixed rather than draining in phase.
    sim.schedule(1 + c, [self] { (*self)(); });
    keep.push_back(std::move(self));
  }
  sim.run();
  for (auto& self : keep) *self = nullptr;  // break the keep-alive cycles
  return finish(sim, t0);
}

/// cancel: seed `total` events at pseudo-random times, cancel every 4th
/// before running — micro_packet's event-core mix.
ShapeResult run_cancel(u32 total) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  auto counter = std::make_shared<u64>(0);
  std::vector<sim::EventHandle> to_cancel;
  to_cancel.reserve(total / 4 + 1);
  for (u32 i = 0; i < total; ++i) {
    sim::EventHandle h = sim.schedule((i * 7919) % 100'000, [counter] { ++*counter; });
    if ((i & 3) == 0) to_cancel.push_back(h);
  }
  for (auto& h : to_cancel) h.cancel();
  sim.run();
  return finish(sim, t0);
}

/// ping: `chains` chains each hop `hops` times, one kHop into the future.
ShapeResult run_ping(u32 chains, u32 hops) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  std::vector<std::shared_ptr<std::function<void(u32)>>> keep;
  keep.reserve(chains);
  for (u32 c = 0; c < chains; ++c) {
    auto self = std::make_shared<std::function<void(u32)>>();
    *self = [&sim, self](u32 remaining) {
      if (remaining == 0) return;
      sim.schedule(kHop, [self, remaining] { (*self)(remaining - 1); });
    };
    sim.schedule(1 + c, [self, hops] { (*self)(hops); });
    keep.push_back(std::move(self));
  }
  sim.run();
  for (auto& self : keep) *self = nullptr;  // break the keep-alive cycles
  return finish(sim, t0);
}

/// timers: ping chains whose every hop also re-arms the chain's long timer
/// (cancel, then schedule anew). No timer ever fires.
ShapeResult run_timers(u32 chains, u32 hops) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  struct Chain {
    std::function<void(u32)> hop;
    sim::EventHandle timer;
  };
  std::vector<std::unique_ptr<Chain>> keep;
  keep.reserve(chains);
  for (u32 c = 0; c < chains; ++c) {
    auto chain = std::make_unique<Chain>();
    Chain* self = chain.get();
    self->hop = [&sim, self](u32 remaining) {
      self->timer.cancel();
      if (remaining == 0) return;
      self->timer = sim.schedule(kTimer, [] {});
      sim.schedule(kHop, [self, remaining] { self->hop(remaining - 1); });
    };
    sim.schedule(1 + c, [self, hops] { self->hop(hops); });
    keep.push_back(std::move(chain));
  }
  sim.run();
  return finish(sim, t0);
}

}  // namespace

int main() {
  workload::BenchSession session("micro_event");
  session.set_backend("none");  // event-kernel microbench, no consensus protocol
  workload::print_header("micro_event: serial event-kernel throughput",
                         "one (when, seq) two-level queue over a recycled event slab");

  constexpr u32 kChains = 64, kSteps = 4000;  // churn: 256k events
  constexpr u32 kCancelTotal = 200'000;       // 25% cancelled
  constexpr u32 kRings = 32, kHops = 10'000;  // ping: 320k hops

  const ShapeResult churn = run_churn(kChains, kSteps);
  const ShapeResult cancel = run_cancel(kCancelTotal);
  const ShapeResult ping = run_ping(kRings, kHops);
  const ShapeResult timers = run_timers(kRings, kHops);

  // Churn executes chains * steps events, cancel executes 3/4 of the seeded
  // events, ping and timers execute rings * hops + rings seeds.
  const u64 want_churn = static_cast<u64>(kChains) * kSteps;
  const u64 want_cancel = kCancelTotal - (kCancelTotal + 3) / 4;
  const u64 want_ping = static_cast<u64>(kRings) * kHops + kRings;
  if (churn.executed != want_churn || cancel.executed != want_cancel ||
      ping.executed != want_ping || timers.executed != want_ping) {
    std::fprintf(stderr,
                 "event-count mismatch: churn %llu/%llu cancel %llu/%llu ping %llu/%llu "
                 "timers %llu/%llu\n",
                 (unsigned long long)churn.executed, (unsigned long long)want_churn,
                 (unsigned long long)cancel.executed, (unsigned long long)want_cancel,
                 (unsigned long long)ping.executed, (unsigned long long)want_ping,
                 (unsigned long long)timers.executed, (unsigned long long)want_ping);
    return 1;
  }

  // Key names are the ones bench/baselines/micro_event.json gates on.
  session.add_value("events_per_sec_lanes1", churn.events_per_sec);
  session.add_value("cancel_events_per_sec_lanes1", cancel.events_per_sec);
  session.add_value("ping_events_per_sec_lanes1", ping.events_per_sec);
  // Reported, not gated: bench/baselines has no value for this shape.
  session.add_value("timers_events_per_sec", timers.events_per_sec);
  workload::Table table("event kernel throughput", {"shape", "events", "Mev/s"});
  for (const auto& [shape, r] : {std::pair<const char*, const ShapeResult&>{"churn", churn},
                                 {"cancel", cancel},
                                 {"ping", ping},
                                 {"timers", timers}}) {
    table.add_row({shape, std::to_string(r.executed),
                   workload::Table::fmt(r.events_per_sec / 1e6, 3)});
  }
  table.print();
  session.add_table(table);
  return 0;
}
