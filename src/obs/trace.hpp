// Consensus-instance tracing: simulated-time spans keyed by the leader's
// operation id, recording one consensus round end to end — propose (leader
// CPU) -> leader write post -> switch scatter -> per-replica ACK -> gather
// quorum -> commit — exported as Chrome trace-event JSON so a round can be
// inspected in about:tracing or Perfetto.
//
// Round keys are namespaced by replication domain (trace_key below): the
// high 16 bits carry the domain id, the low 48 bits the per-leader operation
// counter. Multigroup clusters run several leaders whose operation counters
// all start at 1, so un-namespaced keys would collide across domains and
// merge unrelated rounds into one track.
//
// The switch data plane never sees operation ids, only packet sequence
// numbers, so the tracer keeps a wire map: when the leader posts the write
// for a sampled instance it registers the PSN range (and destination QPN)
// the write occupies, and switch-side hooks resolve (PSN, QPN) -> instance
// through an index of every mapped PSN. The QPN disambiguates
// domains whose leaders happen to use overlapping PSN windows. Rounds are
// indexed by instance: an open-loop run past saturation keeps thousands of
// rounds open, and every hook looks its round up.
//
// The tracer has two independently-enabled consumers sharing the round
// bookkeeping: the Chrome event buffer (enable()) and the commit-latency
// attribution sink (enable_attribution(), see obs/attribution.hpp). Either
// sets the `is_enabled()` flag that guards every hook.
//
// One tracer per simulation run (in its obs::Context). Cost model: every
// hook is guarded by `is_enabled()`, a plain member load, so the disabled
// configuration adds one predictable branch per call site and nothing else.
// Enabled, rounds are sampled (`sample_every`) and the event buffer is
// bounded (`max_events`).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce::obs {

/// How many low bits of a round key hold the per-leader operation counter;
/// the bits above carry the replication domain id.
inline constexpr u32 kTraceOpBits = 48;

/// Build a domain-namespaced round key. Domain 0 keys equal the raw
/// operation id, so single-domain clusters are unaffected.
constexpr u64 trace_key(u32 domain, u64 op) noexcept {
  return (static_cast<u64>(domain) << kTraceOpBits) | (op & ((u64{1} << kTraceOpBits) - 1));
}
constexpr u32 trace_domain(u64 key) noexcept {
  return static_cast<u32>(key >> kTraceOpBits);
}
constexpr u64 trace_op(u64 key) noexcept {
  return key & ((u64{1} << kTraceOpBits) - 1);
}

class LatencyAttribution;

class Tracer {
 public:
  /// One in-flight round, as frozen by the flight recorder.
  struct InFlight {
    u64 key = 0;
    SimTime start = 0;
  };

  /// `sink` receives one RoundTiming per finished round while attribution
  /// is enabled.
  explicit Tracer(LatencyAttribution& sink) noexcept : sink_(sink) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The hot-path guard: false until enable() or enable_attribution().
  bool is_enabled() const noexcept { return enabled_; }

  /// Start recording Chrome trace events. Rounds whose operation id is
  /// divisible by `sample_every` are traced; recording stops (new events
  /// are dropped) once `max_events` have been buffered.
  void enable(u32 sample_every = 1, std::size_t max_events = 1u << 20);
  /// Start feeding per-stage round timings to LatencyAttribution, without
  /// buffering Chrome events unless enable() was called too. Attribution
  /// sees every round unless enable() set a sampling rate.
  void enable_attribution() noexcept {
    attr_on_ = true;
    enabled_ = true;
  }

  bool events_enabled() const noexcept { return events_on_; }
  bool attribution_enabled() const noexcept { return attr_on_; }
  u32 sample_every() const noexcept { return sample_; }
  bool overflowed() const noexcept { return overflowed_; }
  std::size_t event_count() const noexcept { return events_.size(); }

  /// Whether this instance should be traced. Valid operation ids are >= 1;
  /// sampling applies to the operation id, not the namespaced key, so a
  /// rate of e.g. 10 picks every 10th round in *every* domain.
  bool sampled(u64 instance) const noexcept {
    return enabled_ && trace_op(instance) != 0 && trace_op(instance) % sample_ == 0;
  }

  // --- Round lifecycle (leader side) ------------------------------------

  /// Open the root span of a consensus round. `start` is when the proposal
  /// entered the node (queueing ahead of the leader CPU counts).
  void begin_round(u64 instance, SimTime start);

  /// Record a closed child span of a sampled round. No-op for untraced
  /// instances, so call sites don't need their own sampled() check.
  void span(u64 instance, const char* name, SimTime start, SimTime end,
            const char* arg_name = nullptr, u64 arg = 0);

  /// Record a point event within a sampled round.
  void instant(u64 instance, const char* name, SimTime at,
               const char* arg_name = nullptr, u64 arg = 0);

  /// Register the wire footprint of a sampled round: the posted write
  /// occupies PSNs [first_psn, first_psn + npkts) on the leader's stream
  /// toward `qpn` (0 when the destination QP is unknown / unique).
  void map_wire(u64 instance, Psn first_psn, u32 npkts, Qpn qpn = 0);

  /// Resolve a leader-numbered PSN to the in-flight round covering it
  /// (0 if none is traced). `qpn` narrows the search to rounds whose wire
  /// mapping targets that QP; 0 matches any mapping. Used by the switch
  /// data plane, where concurrent domains carry overlapping PSN ranges.
  u64 instance_for_psn(Psn psn, Qpn qpn = 0) const noexcept;

  // --- Stage boundaries (attribution marks; no event emitted) -----------

  /// The leader's decision CPU finished preparing the round.
  void mark_propose_done(u64 instance, SimTime at);
  /// The (last) replication write was handed to the NIC.
  void mark_post_done(u64 instance, SimTime at);
  /// The aggregated/accepting ACK arrived back at the leader NIC.
  void mark_ack_rx(u64 instance, SimTime at);

  // --- Switch-side aggregates (folded into spans at end_round) ----------

  /// A scatter request packet for this round entered the switch ingress.
  void on_scatter(u64 instance, SimTime at);
  /// A per-replica carbon copy left the switch egress.
  void on_scatter_copy(u64 instance, SimTime at, u32 replica);
  /// A replica's ACK was counted toward the round's quorum (switch gather
  /// or leader-CPU aggregation, depending on the communicator).
  void on_ack(u64 instance, SimTime at, u32 replica);
  /// The quorum-completing ACK was forwarded / observed.
  void on_quorum(u64 instance, SimTime at);

  /// Close the round: emits the root "round" span plus the aggregated
  /// "switch.scatter" and "gather" spans, feeds the attribution sink, and
  /// releases the wire mapping.
  void end_round(u64 instance, SimTime end, bool committed);

  /// The rounds currently in flight (for the flight recorder).
  std::vector<InFlight> active_rounds() const;

  // --- Export ------------------------------------------------------------

  /// Serialize everything recorded so far as Chrome trace-event JSON
  /// (one track per traced instance; spans nest by time containment).
  std::string to_chrome_json() const { return to_chrome_json({this}); }
  /// One Chrome trace for several runs: run i is process i+1, so rounds of
  /// different runs never share a track.
  static std::string to_chrome_json(const std::vector<const Tracer*>& runs);

 private:
  struct Event {
    u64 instance = 0;
    const char* name = nullptr;
    SimTime start = 0;
    Duration dur = -1;  ///< -1: instant event
    const char* arg_name = nullptr;
    u64 arg = 0;
  };
  struct Round {
    u64 instance = 0;
    u64 order = 0;  ///< begin order among all rounds
    SimTime start = 0;
    Psn first_psn = 0;
    u32 npkts = 0;
    Qpn wire_qpn = 0;
    bool has_wire = false;
    SimTime scatter_first = -1, scatter_last = -1;
    SimTime gather_first = -1, gather_last = -1;
    SimTime propose_end = -1, post_end = -1;
    SimTime quorum_at = -1, ack_rx = -1;
  };

  Round* find_round(u64 instance) noexcept;
  void add_wire(const Round& round);
  void drop_wire(const Round& round);
  void push(Event event);
  void append_chrome_events(std::string& out, u32 pid) const;

  LatencyAttribution& sink_;
  bool enabled_ = false;
  bool events_on_ = false;
  bool attr_on_ = false;
  u32 sample_ = 1;
  std::size_t max_events_ = 1u << 20;
  bool overflowed_ = false;
  std::vector<Event> events_;
  std::unordered_map<u64, Round> active_;  ///< rounds in flight, by instance
  u64 next_order_ = 0;
  /// PSN of every packet of a mapped round -> its instance. A PSN maps
  /// several rounds when domains' PSN windows overlap or a round is left
  /// open across a PSN lap; a lookup keeps those on a matching QP and takes
  /// the earliest-begun, as a scan in begin order would.
  std::unordered_multimap<Psn, u64> wire_;
};

}  // namespace p4ce::obs
