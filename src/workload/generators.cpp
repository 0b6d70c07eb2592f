#include "workload/generators.hpp"

#include <algorithm>
#include <memory>

#include "obs/context.hpp"

namespace p4ce::workload {

namespace {

Bytes make_value(u32 size, u64 salt) {
  Bytes value(size, 0);
  for (u32 i = 0; i < std::min<u32>(size, 8); ++i) {
    value[i] = static_cast<u8>(salt >> (8 * i));
  }
  return value;
}

/// Shared state for the window-driven runners.
struct WindowState {
  core::Cluster* cluster = nullptr;
  u32 value_size = 0;
  u32 batch = 1;
  u64 total = 0;      // proposals to issue in all (warmup + measured)
  u64 warmup = 0;
  u64 issued = 0;
  u64 completed = 0;
  u64 failed = 0;
  SimTime window_start = 0;
  GoodputMeter meter;
  LatencyHistogram latency;
  SimTime last_completion = 0;
  bool measuring = false;
};

void issue_next(std::shared_ptr<WindowState> state);

void on_complete(std::shared_ptr<WindowState> state, SimTime issued_at, Status st) {
  ++state->completed;
  state->last_completion = state->cluster->now();
  if (!st.is_ok()) ++state->failed;
  if (state->measuring && st.is_ok()) {
    state->meter.add(static_cast<u64>(state->value_size) * state->batch);
    state->latency.record(state->cluster->now() - issued_at);
  }
  if (state->completed == state->warmup) {
    state->measuring = true;
    state->meter.start(state->cluster->now());
  }
  issue_next(state);
}

/// Issue one proposal through the current leader.
void issue_next(std::shared_ptr<WindowState> state) {
  if (state->issued >= state->total) return;
  consensus::Node* leader = state->cluster->leader();
  if (leader == nullptr) return;  // the drive loop will retry
  const u64 n = state->issued++;
  const SimTime issued_at = state->cluster->now();
  Status st;
  if (state->batch <= 1) {
    st = leader->propose(make_value(state->value_size, n),
                         [state, issued_at](Status s, u64) { on_complete(state, issued_at, s); });
  } else {
    std::vector<Bytes> values;
    values.reserve(state->batch);
    for (u32 i = 0; i < state->batch; ++i) {
      values.push_back(make_value(state->value_size, n * state->batch + i));
    }
    st = leader->propose_batch(std::move(values), [state, issued_at](Status s, u64) {
      on_complete(state, issued_at, s);
    });
  }
  if (!st.is_ok()) {
    --state->issued;  // leadership flapped; retried by the drive loop
  }
}

RunResult drive_window(core::Cluster& cluster, std::shared_ptr<WindowState> state, u32 window) {
  if (state->warmup == 0) {
    state->measuring = true;
    state->meter.start(cluster.now());
  }
  for (u32 i = 0; i < window; ++i) issue_next(state);
  const SimTime deadline = cluster.now() + seconds(300);
  u64 last_completed = 0;
  SimTime last_progress = cluster.now();
  while (state->completed < state->total && cluster.now() < deadline) {
    cluster.run_for(milliseconds(1));
    // Top the window back up (leadership gaps can drop in-flight count).
    const u64 inflight = state->issued - state->completed;
    for (u64 i = inflight; i < window && state->issued < state->total; ++i) issue_next(state);
    if (state->completed != last_completed) {
      last_completed = state->completed;
      last_progress = cluster.now();
    } else if (cluster.now() - last_progress > seconds(5)) {
      break;  // wedged (e.g. lost quorum); report what we have
    }
  }
  // Stop the clock at the last completion, not at the (coarser) drive-loop
  // wakeup that observed it.
  state->meter.stop(state->last_completion > 0 ? state->last_completion : cluster.now());

  RunResult result;
  result.operations = state->meter.operations() * state->batch;
  result.failed = state->failed;
  result.elapsed = state->meter.elapsed();
  result.ops_per_sec = state->meter.ops_per_second() * state->batch;
  result.goodput_gbps = state->meter.gigabytes_per_second();
  result.mean_latency_us = state->latency.mean_ns() / 1e3;
  result.p50_latency_us = state->latency.p50_ns() / 1e3;
  result.p99_latency_us = state->latency.p99_ns() / 1e3;
  return result;
}

}  // namespace

u32 safe_window(u64 write_bytes, u32 mtu, u32 want) {
  const u64 packets = std::max<u64>(1, (write_bytes + mtu - 1) / mtu);
  const u64 cap = std::max<u64>(1, 256 / packets);
  return static_cast<u32>(std::min<u64>(want, cap));
}

RunResult run_closed_loop(core::Cluster& cluster, u32 value_size, u32 window, u64 ops,
                          u64 warmup) {
  auto state = std::make_shared<WindowState>();
  state->cluster = &cluster;
  state->value_size = value_size;
  state->batch = 1;
  state->total = ops + warmup;
  state->warmup = warmup;
  return drive_window(cluster, state, window);
}

RunResult run_batched_goodput(core::Cluster& cluster, u32 value_size, u32 batch, u32 window,
                              u64 batches, u64 warmup) {
  auto state = std::make_shared<WindowState>();
  state->cluster = &cluster;
  state->value_size = value_size;
  state->batch = batch;
  state->total = batches + warmup;
  state->warmup = warmup;
  return drive_window(cluster, state, window);
}

RunResult run_open_loop(core::Cluster& cluster, u32 value_size, double rate, Duration duration,
                        Duration warmup_time) {
  struct OpenState {
    core::Cluster* cluster;
    u32 value_size;
    u64 arrivals = 0;
    u64 completed = 0;
    u64 failed = 0;
    u64 measured = 0;
    SimTime measure_start = 0;
    SimTime stop_at = 0;
    LatencyHistogram latency;
    GoodputMeter meter;
    Rng rng{42};
    double mean_gap_ns;
    bool done_arriving = false;
  };
  auto state = std::make_shared<OpenState>();
  state->cluster = &cluster;
  state->value_size = value_size;
  state->mean_gap_ns = 1e9 / rate;
  state->measure_start = cluster.now() + warmup_time;
  state->stop_at = state->measure_start + duration;
  state->meter.start(state->measure_start);
  // Attribute the same rounds the latency below measures: arrivals after
  // the warmup.
  cluster.sim().obs().attribution.record_from(state->measure_start);

  sim::Simulator& sim = cluster.sim();
  // Self-rescheduling arrival process.
  auto arrival = std::make_shared<std::function<void()>>();
  *arrival = [state, &sim, arrival] {
    if (sim.now() >= state->stop_at) {
      state->done_arriving = true;
      return;
    }
    consensus::Node* leader = state->cluster->leader();
    if (leader != nullptr) {
      ++state->arrivals;
      const u64 salt = state->arrivals;
      const SimTime at = sim.now();
      const bool measured = at >= state->measure_start;
      std::ignore = leader->propose(
          make_value(state->value_size, salt), [state, at, measured](Status st, u64) {
            ++state->completed;
            if (!st.is_ok()) {
              ++state->failed;
              return;
            }
            if (measured) state->latency.record(state->cluster->now() - at);
            // Achieved throughput is the steady-state commit rate inside the
            // window (regardless of when the request arrived), so a saturated
            // system reports its capacity, not its eventually-drained backlog.
            const SimTime now = state->cluster->now();
            if (now >= state->measure_start && now <= state->stop_at) {
              ++state->measured;
              state->meter.add(state->value_size);
            }
          });
    }
    sim.schedule(static_cast<Duration>(state->rng.next_exponential(state->mean_gap_ns)) + 1,
                 [arrival] { (*arrival)(); });
  };
  (*arrival)();

  // Run through warmup + measurement, then drain (bounded).
  cluster.run_for(warmup_time + duration);
  const SimTime drain_deadline = cluster.now() + milliseconds(400);
  while (state->completed < state->arrivals && cluster.now() < drain_deadline) {
    cluster.run_for(milliseconds(1));
  }
  *arrival = nullptr;  // break the self-referential keep-alive cycle
  state->meter.stop(state->stop_at);

  RunResult result;
  result.operations = state->measured;
  result.failed = state->failed;
  result.elapsed = duration;
  result.offered_ops_per_sec = rate;
  result.ops_per_sec = static_cast<double>(state->measured) / to_seconds(duration);
  result.goodput_gbps = state->meter.gigabytes_per_second();
  result.mean_latency_us = state->latency.mean_ns() / 1e3;
  result.p50_latency_us = state->latency.p50_ns() / 1e3;
  result.p99_latency_us = state->latency.p99_ns() / 1e3;
  return result;
}

BurstResult run_burst(core::Cluster& cluster, u32 value_size, u32 burst, u32 repeats) {
  LatencyHistogram burst_latency;
  for (u32 r = 0; r < repeats; ++r) {
    consensus::Node* leader = cluster.leader();
    if (leader == nullptr) break;
    auto remaining = std::make_shared<u32>(burst);
    auto finished_at = std::make_shared<SimTime>(0);
    const SimTime start = cluster.now();
    for (u32 i = 0; i < burst; ++i) {
      std::ignore = leader->propose(make_value(value_size, r * burst + i),
                                    [remaining, finished_at, &cluster](Status, u64) {
                                      if (--*remaining == 0) *finished_at = cluster.now();
                                    });
    }
    const SimTime deadline = cluster.now() + seconds(1);
    while (*remaining > 0 && cluster.now() < deadline) cluster.run_for(microseconds(10));
    burst_latency.record((*finished_at > 0 ? *finished_at : cluster.now()) - start);
    cluster.run_for(microseconds(50));  // settle between bursts
  }
  BurstResult result;
  result.burst = burst;
  result.mean_burst_us = burst_latency.mean_ns() / 1e3;
  result.p99_burst_us = burst_latency.p99_ns() / 1e3;
  return result;
}

}  // namespace p4ce::workload
