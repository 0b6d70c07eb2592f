#include "driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>

#include "alloc_count.hpp"
#include "common/rng.hpp"
#include "consensus/one_sided.hpp"
#include "core/cluster.hpp"
#include "p4ce/tables.hpp"
#include "reference.hpp"
#include "workload/generators.hpp"

namespace perfbench {

using namespace p4ce;
using alloc::Scope;
using alloc::ScopeGuard;

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md; the
// numbers here size the simulated warm-up and window. one_sided_closed_2r
// warms up past the one-sided backend's 2^14-op slot wrap so its rate no
// longer depends on run length. p4ce_leader_crash_open runs its leader about
// 35% busy so the median request queues and its p50 is not a constant.
const WorkloadSpec kWorkloads[] = {
    {.name = "p4ce_closed_4r",
     .mode = consensus::Mode::kP4ce,
     .machines = 5,
     .clients = 16,
     .warmup = milliseconds(2),
     .window = milliseconds(20)},
    {.name = "one_sided_closed_2r",
     .mode = consensus::Mode::kOneSided,
     .machines = 3,
     .clients = 16,
     .warmup = milliseconds(40),
     .window = milliseconds(40)},
    {.name = "mu_goodput_2r",
     .mode = consensus::Mode::kMu,
     .machines = 3,
     .value_size = 512,
     .batch = 16,
     .warmup = milliseconds(1),
     .window = milliseconds(20)},
    {.name = "p4ce_leader_crash_open",
     .mode = consensus::Mode::kP4ce,
     .machines = 3,
     .failover_calibration = true,
     .open_rate = 800e3,
     .warmup = milliseconds(5),
     .window = milliseconds(200),
     .crash_after = milliseconds(20)},
};

constexpr u32 kMaxValueSize = 8192;
constexpr double kReferenceSeconds = 0.06;

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void spin_for_ns(u64 ns) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

u64 mix(u64 z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Value `id`'s bytes: the id, then filler derived from (seed, id). The
/// checker regenerates them to prove a delivered entry was proposed.
void fill_value(u8* out, u32 size, u64 seed, u64 id) {
  std::memcpy(out, &id, std::min<u32>(size, 8));
  u64 state = mix(seed ^ mix(id));
  for (u32 i = 8; i < size; i += 8) {
    state = mix(state);
    std::memcpy(out + i, &state, std::min<u32>(size - i, 8));
  }
}

/// Exact nearest-rank percentile of sorted samples.
double percentile(const std::vector<Duration>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
}

/// Every layer counter the benchmark reads, taken at a window boundary.
struct Snapshot {
  u64 events = 0;
  u64 driver_events = 0;
  u64 sim_allocs = 0;
  u64 sim_alloc_bytes = 0;
  u64 propose_allocs = 0;
  u64 proposals = 0;
  std::vector<u64> tx_wire, rx_wire, nic_tx, nic_dropped, nic_overflows;
  u64 switch_drops = 0;
  u64 switch_punted = 0;
  bool group_active[p4::kMaxGroups] = {};
  p4::P4ceDataplane::GroupStats groups[p4::kMaxGroups] = {};
  u64 l3_forwarded = 0;
  u64 fast_commits = 0;  ///< one-sided fast-path commits, summed over nodes
  u64 slow_commits = 0;
};

class Episode {
 public:
  Episode(const WorkloadSpec& spec, u64 seed, bool traced, const Knobs& knobs)
      : spec_(spec),
        seed_(seed),
        traced_(traced),
        knobs_(knobs),
        rng_(seed),
        clients_(spec.clients > 0 || spec.batch == 1
                     ? spec.clients
                     : workload::safe_window(spec.batch *
                                             consensus::entry_footprint(spec.value_size))) {}

  EpisodeResult run();

 private:
  enum class State : u8 { kHeld, kIssued, kOk, kFailed };
  struct Request {
    SimTime due = 0;
    SimTime answered = -1;
    u64 first_seq = 0;
    NodeId leader = kInvalidNode;
    State state = State::kHeld;
  };
  struct NodeLog {
    std::vector<u64> value_ids;    ///< index seq-1
    std::vector<SimTime> deliver_at;
  };

  bool set_up(EpisodeResult& result);
  void new_request(SimTime due);
  void issue(u64 r);
  void on_commit(u64 r, const Status& st, u64 seq);
  void on_deliver(u32 node, const consensus::LogEntry& entry);
  void on_leader_active();
  void schedule_arrival(SimTime at);
  void try_crash();
  void violation(std::string what);
  Snapshot snapshot();
  bool drain();
  void check_logs();
  void compute(const Snapshot& a, const Snapshot& b, double window_host_s,
               EpisodeResult& result);

  const WorkloadSpec& spec_;
  const u64 seed_;
  const bool traced_;
  const Knobs knobs_;
  Rng rng_;
  const u32 clients_;  ///< closed loop: proposals kept outstanding (0: open loop)
  std::unique_ptr<core::Cluster> cluster_;
  sim::Simulator* sim_ = nullptr;

  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  bool running_ = false;  ///< the driver is issuing (between begin and window end)
  bool torn_down_ = false;  ///< callbacks fired while the cluster is destroyed are ignored

  std::vector<Request> requests_;
  std::deque<u64> backlog_;  ///< requests due while there is no leader
  u64 backlog_peak_ = 0;
  u64 outstanding_ = 0;
  u64 driver_events_ = 0;
  u64 proposals_ = 0;
  double propose_host_s_ = 0;

  std::vector<NodeLog> logs_;
  std::vector<SimTime> commit_at_;     ///< index seq-1: leader commit time
  std::vector<NodeId> committed_by_;   ///< index seq-1
  std::string violation_;

  // Window service record.
  u64 window_commits_ = 0;
  SimTime last_service_ = -1;
  Duration longest_gap_ = 0;

  // Fault record.
  SimTime crash_requested_ = -1;
  SimTime crashed_at_ = -1;
  SimTime leader_back_at_ = -1;
  SimTime first_commit_after_ = -1;
  u64 leader_activations_ = 0;
};

void Episode::violation(std::string what) {
  if (violation_.empty()) violation_ = std::move(what);
}

bool Episode::set_up(EpisodeResult& result) {
  core::ClusterOptions options;
  options.machines = spec_.machines;
  options.mode = spec_.mode;
  options.cal = spec_.failover_calibration ? consensus::Calibration::failover()
                                           : consensus::Calibration::throughput();
  if (knobs_.cpu_post_wr >= 0) options.cal.cpu_post_wr = knobs_.cpu_post_wr;

  const double t0 = wall_now();
  cluster_ = core::Cluster::create(options);
  const double t1 = wall_now();
  sim_ = &cluster_->sim();
  logs_.resize(cluster_->size());
  for (u32 i = 0; i < cluster_->size(); ++i) {
    cluster_->node(i).set_deliver(
        [this, i](const consensus::LogEntry& entry) { on_deliver(i, entry); });
    cluster_->node(i).set_on_leader_active([this](u64) { on_leader_active(); });
  }
  const double t2 = wall_now();
  const bool started = cluster_->start();
  const double t3 = wall_now();
  result.create_s = t1 - t0;
  result.start_s = t3 - t2;
  if (!started) violation("no leader elected during start");
  return started;
}

void Episode::new_request(SimTime due) {
  requests_.push_back(Request{.due = due});
  issue(requests_.size() - 1);
}

void Episode::issue(u64 r) {
  ScopeGuard driver_scope(Scope::kDriver);
  consensus::Node* leader = cluster_->leader();
  Request& req = requests_[r];
  if (leader == nullptr) {
    backlog_.push_back(r);
    backlog_peak_ = std::max<u64>(backlog_peak_, backlog_.size());
    return;
  }
  req.leader = leader->id();
  req.state = State::kIssued;
  ++outstanding_;
  ++proposals_;

  const u64 first_id = r * spec_.batch;
  consensus::Node::CommitFn done = [this, r](Status st, u64 seq) { on_commit(r, st, seq); };
  Status st;
  if (spec_.batch == 1) {
    Bytes value(spec_.value_size);
    fill_value(value.data(), spec_.value_size, seed_, first_id);
    const double t0 = traced_ ? wall_now() : 0;
    {
      ScopeGuard propose_scope(Scope::kPropose);
      st = leader->propose(std::move(value), std::move(done));
    }
    if (traced_) propose_host_s_ += wall_now() - t0;
  } else {
    std::vector<Bytes> values(spec_.batch, Bytes(spec_.value_size));
    for (u32 k = 0; k < spec_.batch; ++k) {
      fill_value(values[k].data(), spec_.value_size, seed_, first_id + k);
    }
    const double t0 = traced_ ? wall_now() : 0;
    {
      ScopeGuard propose_scope(Scope::kPropose);
      st = leader->propose_batch(std::move(values), std::move(done));
    }
    if (traced_) propose_host_s_ += wall_now() - t0;
  }
  if (!st.is_ok()) {  // refused: counted as failed, never retried
    --outstanding_;
    req.state = State::kFailed;
    req.answered = sim_->now();
  }
}

void Episode::on_commit(u64 r, const Status& st, u64 seq) {
  if (torn_down_) return;
  ScopeGuard driver_scope(Scope::kDriver);
  if (knobs_.callback_spin_ns > 0) spin_for_ns(knobs_.callback_spin_ns);
  const SimTime now = sim_->now();
  Request& req = requests_[r];
  if (req.state != State::kIssued) {
    violation("commit callback for a request that was not in flight");
    return;
  }
  --outstanding_;
  req.answered = now;
  req.state = st.is_ok() ? State::kOk : State::kFailed;
  if (st.is_ok()) {
    req.first_seq = seq + 1 - spec_.batch;
    if (commit_at_.size() < seq) {
      commit_at_.resize(seq, -1);
      committed_by_.resize(seq, kInvalidNode);
    }
    for (u64 s = req.first_seq; s <= seq; ++s) {
      commit_at_[s - 1] = now;
      committed_by_[s - 1] = req.leader;
    }
    if (now >= window_start_ && now < window_end_) {
      window_commits_ += spec_.batch;
      if (last_service_ >= 0) longest_gap_ = std::max(longest_gap_, now - last_service_);
      last_service_ = now;
    }
    if (crashed_at_ >= 0 && first_commit_after_ < 0) first_commit_after_ = now;
  }
  if (outstanding_ == 0 && crash_requested_ >= 0 && now >= crash_requested_ && crashed_at_ < 0) {
    sim_->schedule(0, [this] {
      ++driver_events_;
      try_crash();
    });
  }
  // Closed loop: the client thinks, then proposes again.
  if (clients_ > 0 && running_ && now < window_end_) {
    const auto think =
        static_cast<Duration>(rng_.next_below(static_cast<u64>(2 * kThinkMean) + 1));
    sim_->schedule(think, [this] {
      ++driver_events_;
      if (running_) new_request(sim_->now());
    });
  }
}

void Episode::on_deliver(u32 node, const consensus::LogEntry& entry) {
  if (torn_down_) return;
  ScopeGuard driver_scope(Scope::kDriver);
  NodeLog& log = logs_[node];
  if (entry.seq != log.value_ids.size() + 1) {
    violation("node " + std::to_string(node) + " delivered seq " + std::to_string(entry.seq) +
              " after " + std::to_string(log.value_ids.size()));
    return;
  }
  u64 id = ~0ull;
  if (entry.payload.size() == spec_.value_size) std::memcpy(&id, entry.payload.data(), 8);
  if (id >= requests_.size() * spec_.batch) {
    violation("node " + std::to_string(node) + " delivered a value that was never proposed");
    return;
  }
  u8 expect[kMaxValueSize];
  fill_value(expect, spec_.value_size, seed_, id);
  if (std::memcmp(expect, entry.payload.data(), spec_.value_size) != 0) {
    violation("node " + std::to_string(node) + " delivered corrupted value " + std::to_string(id));
    return;
  }
  log.value_ids.push_back(id);
  log.deliver_at.push_back(sim_->now());
}

void Episode::on_leader_active() {
  if (torn_down_) return;
  ScopeGuard driver_scope(Scope::kDriver);
  if (!running_ && outstanding_ == 0 && backlog_.empty()) return;  // initial election
  ++leader_activations_;
  if (crashed_at_ >= 0 && leader_back_at_ < 0) leader_back_at_ = sim_->now();
  // Requests held while there was no leader go to the new one, oldest first.
  std::deque<u64> held;
  held.swap(backlog_);
  for (u64 r : held) issue(r);
}

void Episode::schedule_arrival(SimTime at) {
  sim_->schedule_at(at, [this] {
    ++driver_events_;
    const SimTime now = sim_->now();
    if (now >= window_end_) return;
    new_request(now);
    const double gap = rng_.next_exponential(1e9 / spec_.open_rate);
    schedule_arrival(now + static_cast<Duration>(gap) + 1);
  });
}

/// Crash the leader at the first instant after the requested time when it
/// has no proposal in flight, so the fault loses no acknowledged request and
/// every request the outage delays is still answered by the new leader.
void Episode::try_crash() {
  if (crashed_at_ >= 0 || outstanding_ > 0 || sim_->now() < crash_requested_) return;
  consensus::Node* leader = cluster_->leader();
  if (leader == nullptr) return;
  crashed_at_ = sim_->now();
  if (crashed_at_ >= window_start_ && crashed_at_ < window_end_) {
    // The crash is a service boundary: the gap after it runs from the crash
    // to the first request served afterwards.
    if (last_service_ >= 0) longest_gap_ = std::max(longest_gap_, crashed_at_ - last_service_);
    last_service_ = crashed_at_;
  }
  ScopeGuard sim_scope(Scope::kRunFor);
  cluster_->crash_node(leader->id());
}

Snapshot Episode::snapshot() {
  Snapshot s;
  s.events = sim_->events_executed();
  s.driver_events = driver_events_;
  const auto& c = alloc::counts();
  const auto idx = [](Scope sc) { return static_cast<std::size_t>(sc); };
  s.sim_allocs = c.calls[idx(Scope::kRunFor)] + c.calls[idx(Scope::kPropose)];
  s.sim_alloc_bytes = c.bytes[idx(Scope::kRunFor)] + c.bytes[idx(Scope::kPropose)];
  s.propose_allocs = c.calls[idx(Scope::kPropose)];
  s.proposals = proposals_;
  for (u32 i = 0; i < cluster_->size(); ++i) {
    s.tx_wire.push_back(cluster_->host_tx_wire_bytes(i));
    s.rx_wire.push_back(cluster_->host_rx_wire_bytes(i));
    const rdma::Nic& nic = cluster_->host(i).nic;
    s.nic_tx.push_back(nic.packets_sent());
    s.nic_dropped.push_back(nic.packets_dropped());
    s.nic_overflows.push_back(nic.rx_overflows());
  }
  for (sw::SwitchDevice* sw : {&cluster_->primary_switch(), &cluster_->backup_switch()}) {
    s.switch_drops += sw->ingress_drops() + sw->egress_drops();
    s.switch_punted += sw->punted();
  }
  p4::P4ceDataplane& dp = cluster_->dataplane();
  for (u16 g = 0; g < p4::kMaxGroups; ++g) {
    s.group_active[g] = dp.group_active(g);
    if (s.group_active[g]) s.groups[g] = dp.group_stats(g);
  }
  s.l3_forwarded = dp.l3_forwarded();
  for (u32 i = 0; i < cluster_->size(); ++i) {
    if (auto* os = dynamic_cast<consensus::OneSidedCommunicator*>(
            cluster_->node(i).communicator())) {
      s.fast_commits += os->fast_path_commits();
      s.slow_commits += os->slow_path_commits();
    }
  }
  return s;
}

/// Run past the window until every issued request is answered and every
/// surviving node has delivered the whole log. False if it never settles.
bool Episode::drain() {
  const SimTime deadline = sim_->now() + milliseconds(500);
  auto settled = [this] {
    if (outstanding_ > 0 || !backlog_.empty()) return false;
    std::size_t longest = 0;
    for (const auto& log : logs_) longest = std::max(longest, log.value_ids.size());
    for (u32 i = 0; i < cluster_->size(); ++i) {
      if (!cluster_->node(i).crashed() && logs_[i].value_ids.size() != longest) return false;
    }
    return true;
  };
  ScopeGuard sim_scope(Scope::kRunFor);
  while (!settled()) {
    if (sim_->now() >= deadline) return false;
    sim_->run_until(sim_->now() + microseconds(100));
  }
  return true;
}

/// The output check: every surviving node delivered the same gapless log
/// (gaps and foreign values are caught on delivery), no value appears twice,
/// and every acknowledged value sits at the seq its commit reported.
void Episode::check_logs() {
  const NodeLog* reference = nullptr;
  for (u32 i = 0; i < cluster_->size(); ++i) {
    if (cluster_->node(i).crashed()) continue;
    if (reference == nullptr) {
      reference = &logs_[i];
    } else if (logs_[i].value_ids != reference->value_ids) {
      violation("surviving nodes delivered different logs");
      return;
    }
  }
  if (reference == nullptr) {
    violation("no surviving node");
    return;
  }
  std::vector<u8> seen(requests_.size() * spec_.batch, 0);
  for (u64 id : reference->value_ids) {
    if (seen[id]++ != 0) {
      violation("value " + std::to_string(id) + " delivered twice");
      return;
    }
  }
  for (u64 r = 0; r < requests_.size(); ++r) {
    const Request& req = requests_[r];
    if (req.state != State::kOk) continue;
    for (u64 k = 0; k < spec_.batch; ++k) {
      const u64 seq = req.first_seq + k;
      if (seq == 0 || seq > reference->value_ids.size() ||
          reference->value_ids[seq - 1] != r * spec_.batch + k) {
        violation("acknowledged value " + std::to_string(r * spec_.batch + k) +
                  " is not in the log at its seq " + std::to_string(seq));
        return;
      }
    }
  }
}

void Episode::compute(const Snapshot& a, const Snapshot& b, double window_host_s,
                      EpisodeResult& result) {
  const double commits = static_cast<double>(std::max<u64>(window_commits_, 1));
  const double window_s = to_seconds(spec_.window);

  // --- end to end (simulated) ---
  std::vector<Duration> latency;
  u64 failed = 0;
  for (const Request& req : requests_) {
    if (req.state != State::kOk) ++failed;
    if (req.state == State::kOk && req.due >= window_start_ && req.due < window_end_) {
      latency.push_back(req.answered - req.due);
    }
  }
  std::sort(latency.begin(), latency.end());
  result.attempted = requests_.size() * spec_.batch;
  result.failed = failed * spec_.batch;
  Metrics& e = result.sim;
  e["sim_commit_rate_mops"] = static_cast<double>(window_commits_) / window_s / 1e6;
  e["sim_commit_p50_us"] = percentile(latency, 0.50) / 1e3;
  e["sim_commit_p99_us"] = percentile(latency, 0.99) / 1e3;
  e["sim_commit_p999_us"] = percentile(latency, 0.999) / 1e3;
  e["sim_goodput_gbps"] =
      static_cast<double>(window_commits_) * spec_.value_size / window_s / 1e9;
  e["sim_unavailable_ms"] = to_millis(longest_gap_);

  // --- per layer: deterministic counts ---
  Metrics& m = result.counts;
  m["driver.latency_samples"] = static_cast<double>(latency.size());
  m["driver.failed_share"] =
      requests_.empty() ? 0 : static_cast<double>(failed) / static_cast<double>(requests_.size());
  m["driver.backlog_peak"] = static_cast<double>(backlog_peak_);
  m["driver.resume_ms"] =
      leader_back_at_ >= 0 && first_commit_after_ >= 0
          ? to_millis(first_commit_after_ - leader_back_at_)
          : 0;

  const u64 lib_events = (b.events - a.events) - (b.driver_events - a.driver_events);
  m["sim.events_per_commit"] = static_cast<double>(lib_events) / commits;
  Metrics& al = result.allocs;
  al["sim.allocs_per_commit"] = static_cast<double>(b.sim_allocs - a.sim_allocs) / commits;
  al["sim.alloc_bytes_per_commit"] =
      static_cast<double>(b.sim_alloc_bytes - a.sim_alloc_bytes) / commits;
  const u64 window_proposals = b.proposals - a.proposals;
  al["consensus.propose_allocs_per_call"] =
      window_proposals == 0
          ? 0
          : static_cast<double>(b.propose_allocs - a.propose_allocs) / window_proposals;

  u64 wire = 0, busiest_tx = 0, packets = 0, busiest_packets = 0, dropped = 0, overflows = 0;
  for (std::size_t i = 0; i < a.tx_wire.size(); ++i) {
    const u64 tx = b.tx_wire[i] - a.tx_wire[i];
    wire += tx + (b.rx_wire[i] - a.rx_wire[i]);
    busiest_tx = std::max(busiest_tx, tx);
    const u64 p = b.nic_tx[i] - a.nic_tx[i];
    packets += p;
    busiest_packets = std::max(busiest_packets, p);
    dropped += b.nic_dropped[i] - a.nic_dropped[i];
    overflows += b.nic_overflows[i] - a.nic_overflows[i];
  }
  const double link_bytes_per_s = cluster_->options().link_gbps * 1e9 / 8;
  m["net.wire_bytes_per_commit"] = static_cast<double>(wire) / commits;
  m["net.leader_tx_util"] = static_cast<double>(busiest_tx) / (link_bytes_per_s * window_s);
  m["rdma.packets_per_commit"] = static_cast<double>(packets) / commits;
  m["rdma.leader_tx_packets_per_commit"] = static_cast<double>(busiest_packets) / commits;
  m["rdma.dropped"] = static_cast<double>(dropped);
  m["rdma.rx_overflows"] = static_cast<double>(overflows);
  m["switchsim.drops"] = static_cast<double>(b.switch_drops - a.switch_drops);
  m["switchsim.punted"] = static_cast<double>(b.switch_punted - a.switch_punted);

  // A group installed during the window (e.g. after a fail-over) counts
  // from zero; a group replaced during it drops out.
  p4::P4ceDataplane::GroupStats g{};
  for (u32 i = 0; i < p4::kMaxGroups; ++i) {
    if (!b.group_active[i]) continue;
    const auto& start = a.group_active[i] ? a.groups[i] : p4::P4ceDataplane::GroupStats{};
    const auto& end = b.groups[i];
    const bool same = end.requests_scattered >= start.requests_scattered;
    g.requests_scattered += end.requests_scattered - (same ? start.requests_scattered : 0);
    g.acks_gathered += end.acks_gathered - (same ? start.acks_gathered : 0);
    g.acks_forwarded += end.acks_forwarded - (same ? start.acks_forwarded : 0);
    g.naks_forwarded += end.naks_forwarded - (same ? start.naks_forwarded : 0);
  }
  m["p4ce.scatter_per_commit"] = static_cast<double>(g.requests_scattered) / commits;
  m["p4ce.acks_gathered_per_commit"] = static_cast<double>(g.acks_gathered) / commits;
  m["p4ce.ack_forward_ratio"] =
      g.requests_scattered == 0
          ? 0
          : static_cast<double>(g.acks_forwarded) / static_cast<double>(g.requests_scattered);
  m["p4ce.naks_forwarded"] = static_cast<double>(g.naks_forwarded);
  m["p4ce.l3_forwarded_per_commit"] = static_cast<double>(b.l3_forwarded - a.l3_forwarded) / commits;

  // Share of the window's one-sided commits that took the fast path (a
  // communicator replaced during the window counts from zero).
  const u64 fast = b.fast_commits - (b.fast_commits >= a.fast_commits ? a.fast_commits : 0);
  const u64 slow = b.slow_commits - (b.slow_commits >= a.slow_commits ? a.slow_commits : 0);
  m["consensus.fast_path_share"] =
      fast + slow == 0 ? 0 : static_cast<double>(fast) / static_cast<double>(fast + slow);
  // P4CE communicator counters are cumulative over the episode.
  u64 fallbacks = 0, reaccelerations = 0;
  for (u32 i = 0; i < cluster_->size(); ++i) {
    if (auto* p4 = dynamic_cast<consensus::P4ceCommunicator*>(cluster_->node(i).communicator())) {
      fallbacks += p4->fallback_count();
      reaccelerations += p4->reaccelerations();
    }
  }
  m["consensus.fallbacks"] = static_cast<double>(fallbacks);
  m["consensus.reaccelerations"] = static_cast<double>(reaccelerations);
  m["consensus.election_ms"] =
      crashed_at_ >= 0 && leader_back_at_ >= 0 ? to_millis(leader_back_at_ - crashed_at_) : 0;
  m["consensus.term_changes"] = static_cast<double>(leader_activations_);

  // Follower lag: each replica's delivery of a seq committed in the window,
  // measured from the leader's commit callback for it.
  std::vector<Duration> lag;
  for (std::size_t s = 0; s < commit_at_.size(); ++s) {
    const SimTime c = commit_at_[s];
    if (c < window_start_ || c >= window_end_) continue;
    for (u32 i = 0; i < logs_.size(); ++i) {
      if (i == committed_by_[s] || s >= logs_[i].deliver_at.size()) continue;
      lag.push_back(logs_[i].deliver_at[s] - c);
    }
  }
  std::sort(lag.begin(), lag.end());
  m["consensus.follower_lag_p50_us"] = percentile(lag, 0.50) / 1e3;
  m["consensus.follower_lag_p99_us"] = percentile(lag, 0.99) / 1e3;

  // --- per layer: host timings ---
  result.window_host_s = window_host_s;
  result.window_commits = window_commits_;
  if (traced_) {
    Metrics& h = result.host;
    h["sim.host_ns_per_event"] =
        window_host_s * 1e9 / static_cast<double>(std::max<u64>(b.events - a.events, 1));
    h["consensus.propose_host_ns"] =
        proposals_ == 0 ? 0 : propose_host_s_ * 1e9 / static_cast<double>(proposals_);
  }
}

EpisodeResult Episode::run() {
  EpisodeResult result;
  if (!set_up(result)) {
    result.correct = false;
    result.violation = violation_;
    torn_down_ = true;
    cluster_.reset();
    return result;
  }
  const SimTime begin = sim_->now();
  window_start_ = begin + spec_.warmup;
  window_end_ = window_start_ + spec_.window;
  running_ = true;
  if (spec_.crash_after >= 0) {
    crash_requested_ = window_start_ + spec_.crash_after;
    sim_->schedule_at(crash_requested_, [this] {
      ++driver_events_;
      try_crash();
    });
  }
  for (u32 c = 0; c < clients_; ++c) new_request(begin);
  if (spec_.open_rate > 0) schedule_arrival(begin);

  double window_host_s = 0;
  Snapshot at_start, at_end;
  {
    ScopeGuard sim_scope(Scope::kRunFor);
    sim_->run_until(window_start_);
  }
  // The host's reference speed, sampled on both sides of the window.
  const double reference_before = reference_mevents_per_s(kReferenceSeconds);
  at_start = snapshot();
  {
    ScopeGuard sim_scope(Scope::kRunFor);
    const double t0 = wall_now();
    sim_->run_until(window_end_);
    window_host_s = wall_now() - t0;
  }
  at_end = snapshot();
  result.reference_mevents =
      0.5 * (reference_before + reference_mevents_per_s(kReferenceSeconds));
  running_ = false;
  if (!drain()) violation("the cluster did not settle within 500 ms after the window");
  if (violation_.empty()) check_logs();
  compute(at_start, at_end, window_host_s, result);
  result.correct = violation_.empty();
  result.violation = violation_;
  torn_down_ = true;
  cluster_.reset();
  return result;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

EpisodeResult run_episode(const WorkloadSpec& spec, u64 seed, u32 k, bool traced,
                          const Knobs& knobs) {
  Episode episode(spec, mix(seed ^ mix(k + 1)), traced, knobs);
  return episode.run();
}

}  // namespace perfbench
