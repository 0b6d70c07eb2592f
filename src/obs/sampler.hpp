// Time-series telemetry: a simulation-time sampler that periodically
// snapshots every instrument in its run's MetricsRegistry into a bounded ring
// of timestamped frames. Where the registry answers "how many retransmits did
// this run have?", the sampler answers "when did they happen?" — the frames
// export as a JSON series (SERIES_*.json) ready for plotting QP in-flight
// windows, switch port backlogs, per-domain commit indices and the like
// against simulated time, and the flight recorder replays the most recent
// frames when a fault trigger fires.
//
// The sampler itself is passive; a SamplerDriver owned by the Cluster posts
// the periodic tick events into that cluster's simulator once started. Ticks
// are ordinary simulation events, so an enabled sampler changes the
// executed-event count but — because observation never mutates protocol
// state — not the protocol outcome (pinned by the determinism suite). A
// driver that is never started schedules nothing, preserving byte-identical
// runs.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

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

  bool is_enabled() const noexcept { return enabled_; }

  /// Start sampling every `period` of simulated time, keeping the most
  /// recent `capacity` frames. Drops previously recorded frames.
  void enable(Duration period, std::size_t capacity = 4096);
  void disable() noexcept { enabled_ = false; }

  Duration period() const noexcept { return period_; }
  std::size_t capacity() const noexcept { return capacity_; }

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

  const MetricsRegistry& registry_;
  bool enabled_ = false;
  Duration period_ = 0;
  std::size_t capacity_ = 4096;
  std::vector<std::string> names_;            ///< column order, append-only
  std::map<std::string, std::size_t> index_;  ///< series name -> column
  std::deque<Frame> ring_;
};

/// Posts the periodic Sampler::tick events into one simulator, for that
/// simulator's own sampler. Nothing is scheduled until start(); destruction
/// cancels the pending tick so the handle never outlives the simulator.
class SamplerDriver {
 public:
  explicit SamplerDriver(sim::Simulator& sim) noexcept : sim_(sim) {}
  ~SamplerDriver() { handle_.cancel(); }

  SamplerDriver(const SamplerDriver&) = delete;
  SamplerDriver& operator=(const SamplerDriver&) = delete;

  /// Begin ticking, if the simulator's sampler is enabled (idempotent).
  void start();

 private:
  void arm();

  sim::Simulator& sim_;
  sim::EventHandle handle_;
};

}  // namespace p4ce::obs
