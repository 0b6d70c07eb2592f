// Time-series telemetry: a simulation-time sampler that periodically
// snapshots every instrument in its run's MetricsRegistry into a bounded ring
// of timestamped frames. Where the registry answers "how many retransmits did
// this run have?", the sampler answers "when did they happen?" — the frames
// export as a JSON series (SERIES_*.json) ready for plotting QP in-flight
// windows, switch port backlogs, per-domain commit indices and the like
// against simulated time, and the flight recorder replays the most recent
// frames when a fault trigger fires.
//
// A simulator binds itself as its sampler's clock, so enable() alone starts
// the periodic tick events on that simulator. Ticks are ordinary simulation
// events, so an enabled sampler changes the executed-event count but —
// because observation never mutates protocol state — not the protocol
// outcome (pinned by the determinism suite). A sampler that is never enabled
// schedules nothing, preserving byte-identical runs; one without a clock (a
// standalone obs::Context) never schedules and is ticked by hand.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce::sim {
class Simulator;
}  // namespace p4ce::sim

namespace p4ce::obs {

class MetricsRegistry;

class Sampler {
 public:
  /// One telemetry snapshot. `values` is column-aligned with series_names();
  /// frames taken before a series first registered are shorter and padded
  /// with nulls on export. Counters and gauges sample their value,
  /// histograms their cumulative count.
  struct Frame {
    SimTime at = 0;
    std::vector<double> values;
  };

  explicit Sampler(const MetricsRegistry& registry) noexcept : registry_(registry) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// The simulator enable() schedules ticks on (nullptr: none). Set by the
  /// simulator that owns this sampler's context, and cleared when it dies.
  void set_clock(sim::Simulator* clock) noexcept { clock_ = clock; }

  /// Start sampling every `period` of simulated time, keeping the most
  /// recent `capacity` frames. Drops previously recorded frames. With a
  /// clock, the first tick is scheduled now, `period` ahead.
  void enable(Duration period, std::size_t capacity = 4096);
  /// Stop sampling; a pending tick fires once more and does not re-arm.
  void disable() noexcept { enabled_ = false; }

  /// Record one frame from the current registry state.
  void tick(SimTime now);

  std::size_t frame_count() const noexcept { return ring_.size(); }
  const std::vector<std::string>& series_names() const noexcept { return names_; }
  /// Oldest-to-newest copies of the buffered frames.
  std::vector<Frame> frames() const { return {ring_.begin(), ring_.end()}; }
  /// The most recent `n` frames, oldest first.
  std::vector<Frame> last_frames(std::size_t n) const;

  /// {"schema": "p4ce-series-v1", "period_ns": .., "series": [..],
  ///  "frames": [[t_ns, epoch, v0, v1, ...], ...]} — short frames padded
  ///  with null to the full column count; epoch is 0.
  void append_json(std::string& out) const { append_json(out, {this}); }
  /// The same document for several runs' samplers: the columns are the union
  /// of their series (in order of first appearance), run i's frames carry
  /// epoch i, and a series a run does not have is null in its frames.
  static void append_json(std::string& out, const std::vector<const Sampler*>& runs);

  /// Render a frame list (e.g. a flight-recorder capture) with the given
  /// column names using the same row layout as append_json().
  static void append_frames_json(std::string& out, const std::vector<std::string>& names,
                                 const std::vector<Frame>& frames, u32 epoch);

 private:
  std::size_t column_for(const std::string& name);
  /// Schedule the next tick of chain `chain` on `sim`. The event holds
  /// everything it needs, so the sampler never touches the simulator outside
  /// its own events and has nothing to cancel when destroyed.
  void arm(sim::Simulator& sim, u64 chain);

  const MetricsRegistry& registry_;
  sim::Simulator* clock_ = nullptr;
  u64 chain_ = 0;  ///< bumped by enable(); ticks of an older chain stop
  bool enabled_ = false;
  Duration period_ = 0;
  std::size_t capacity_ = 4096;
  std::vector<std::string> names_;            ///< column order, append-only
  std::map<std::string, std::size_t> index_;  ///< series name -> column
  std::deque<Frame> ring_;
};

}  // namespace p4ce::obs
