// Commit-latency attribution: a per-stage breakdown of where each committed
// consensus instance spent its time — leader CPU -> write post -> wire to the
// switch -> switch scatter pipeline -> replica ACK turnaround -> quorum
// gather -> wire back to the leader -> commit CPU — aggregated across a run
// into per-stage latency histograms plus a "which stage dominated this
// round's latency" tally. The tracer feeds it one RoundTiming per sampled
// round (see obs/trace.hpp); the bench harness renders the report into
// BENCH_*.json so fig6/tab4 runs ship an explainable latency decomposition
// (p50/p99/p999 per stage) next to the end-to-end numbers.
//
// One sink per simulation run (in its obs::Context), so a report describes
// exactly one configuration. It records every round it is handed; the
// tracer only hands rounds over once Tracer::enable_attribution() is called.
// Stages missing from a round (e.g. Mu rounds never traverse the switch
// program, fallback rounds lose their ACK timeline) fold their time into the
// next stage that does have a timestamp, so the stage durations of any round
// always sum to its end-to-end latency.
#pragma once

#include <array>
#include <string>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce::obs {

/// Everything the tracer learned about one consensus round, handed over at
/// end_round(). A timestamp of -1 means the stage boundary was never
/// observed (untraversed path or a hook the communicator does not have).
struct RoundTiming {
  u64 key = 0;                ///< domain-namespaced instance key
  SimTime start = 0;          ///< proposal entered the node
  SimTime propose_end = -1;   ///< leader decision CPU done
  SimTime post_end = -1;      ///< write handed to the NIC (last post for Mu)
  SimTime scatter_first = -1; ///< request hit the switch ingress
  SimTime scatter_last = -1;  ///< last carbon copy left the switch egress
  SimTime gather_first = -1;  ///< first replica ACK counted
  SimTime quorum_at = -1;     ///< quorum-completing ACK observed
  SimTime ack_rx = -1;        ///< aggregated ACK back at the leader NIC
  SimTime end = 0;            ///< commit callback released
  bool committed = false;
};

class LatencyAttribution {
 public:
  /// Commit critical-path stages, in causal order. Each stage's duration is
  /// the gap between consecutive *observed* timestamps, so a missing stage
  /// contributes zero and its wall time rolls into the next observed one.
  enum Stage : u32 {
    kLeaderCpu = 0,    ///< start -> propose_end
    kLeaderPost,       ///< propose_end -> post_end
    kLinkToSwitch,     ///< post_end -> scatter_first
    kSwitchScatter,    ///< scatter_first -> scatter_last
    kReplicaAck,       ///< scatter_last -> gather_first
    kQuorumGather,     ///< gather_first -> quorum_at
    kLinkToLeader,     ///< quorum_at -> ack_rx
    kCommitCpu,        ///< ack_rx -> end
    kStageCount,
  };

  LatencyAttribution() = default;
  LatencyAttribution(const LatencyAttribution&) = delete;
  LatencyAttribution& operator=(const LatencyAttribution&) = delete;

  /// Ignore rounds that started before `t`. A workload generator passes the
  /// end of its warmup, so the report covers the rounds it measures.
  void record_from(SimTime t) noexcept { record_from_ = t; }

  /// Fold one finished round into the per-stage histograms.
  void record_round(const RoundTiming& timing);

  u64 rounds() const noexcept { return rounds_; }
  u64 committed() const noexcept { return committed_; }
  const LatencyHistogram& total() const noexcept { return total_; }
  const LatencyHistogram& stage(Stage s) const { return stages_[s]; }
  /// How often `s` was the longest stage of a round.
  u64 dominant_count(Stage s) const { return dominant_[s]; }
  /// The stage that most often dominated (kStageCount when no rounds).
  Stage dominant_stage() const noexcept;

  static const char* stage_name(Stage s) noexcept;

  /// Render the critical-path report as a JSON object:
  /// {"rounds": .., "committed": .., "dominant_stage": "..", "total": {..},
  ///  "stages": {"leader.cpu": {count,p50_ns,p99_ns,p999_ns,..,dominant}, ..}}
  void append_json(std::string& out) const;

 private:
  SimTime record_from_ = 0;
  u64 rounds_ = 0;
  u64 committed_ = 0;
  LatencyHistogram total_;
  std::array<LatencyHistogram, kStageCount> stages_{};
  std::array<u64, kStageCount> dominant_{};
};

}  // namespace p4ce::obs
