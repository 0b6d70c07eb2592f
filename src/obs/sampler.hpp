// Time-series telemetry: a simulation-time sampler that periodically
// snapshots every instrument in the MetricsRegistry into a bounded ring of
// timestamped frames. Where the registry answers "how many retransmits did
// this run have?", the sampler answers "when did they happen?" — the frames
// export as a JSON series (SERIES_*.json) ready for plotting QP in-flight
// windows, switch port backlogs, per-domain commit indices and the like
// against simulated time, and the flight recorder replays the most recent
// frames when a fault trigger fires.
//
// The sampler itself is passive; a SamplerDriver owned by the Cluster posts
// the periodic tick events into that cluster's simulator. Ticks are ordinary
// simulation events, so an enabled sampler changes the executed-event count
// but — because observation never mutates protocol state — not the protocol
// outcome (pinned by the determinism suite). Disabled, the single
// `Sampler::is_enabled()` bool keeps clusters from even constructing a
// driver, preserving byte-identical runs.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace p4ce::obs {

class Sampler {
 public:
  /// One telemetry snapshot. `values` is column-aligned with series_names();
  /// frames taken before a series first registered are shorter and padded
  /// with nulls on export. Counters and gauges sample their value,
  /// histograms their cumulative count.
  struct Frame {
    SimTime at = 0;
    u32 epoch = 0;  ///< increments per cluster, since SimTime restarts at 0
    std::vector<double> values;
  };

  /// The process-wide sampler cluster drivers tick.
  static Sampler& global();

  Sampler() = default;
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// The hot-path guard clusters consult before attaching a driver.
  static bool is_enabled() noexcept { return g_enabled_; }

  /// Start sampling every `period` of simulated time, keeping the most
  /// recent `capacity` frames. Drops previously recorded frames.
  void enable(Duration period, std::size_t capacity = 4096);
  void disable() noexcept { g_enabled_ = false; }
  /// Drop recorded frames and column assignments (keeps configuration).
  void reset();

  Duration period() const noexcept { return period_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Called once per cluster so frames from back-to-back clusters in one
  /// bench (whose simulated clocks all start at 0) stay distinguishable.
  void begin_epoch() noexcept { ++epoch_; }
  u32 epoch() const noexcept { return epoch_; }

  /// Record one frame from the current registry state.
  void tick(SimTime now);

  std::size_t frame_count() const noexcept { return ring_.size(); }
  /// Column names by reference — only safe while the simulation is quiesced
  /// (tick() appends columns); in-sim readers use series_snapshot().
  const std::vector<std::string>& series_names() const noexcept { return names_; }
  /// Locked copy of the column names, safe against a concurrent tick().
  std::vector<std::string> series_snapshot() const;
  /// Oldest-to-newest copies of the buffered frames.
  std::vector<Frame> frames() const;
  /// The most recent `n` frames, oldest first.
  std::vector<Frame> last_frames(std::size_t n) const;

  /// {"schema": "p4ce-series-v1", "period_ns": .., "series": [..],
  ///  "frames": [[t_ns, epoch, v0, v1, ...], ...]} — short frames padded
  ///  with null to the full column count.
  void append_json(std::string& out) const;
  bool write_json(const std::string& path) const;

  /// Render a frame list (e.g. a flight-recorder capture) with the given
  /// column names using the same row layout as append_json().
  static void append_frames_json(std::string& out, const std::vector<std::string>& names,
                                 const std::vector<Frame>& frames);

 private:
  std::size_t column_for(const std::string& name);

  static inline bool g_enabled_ = false;
  Duration period_ = 0;
  std::size_t capacity_ = 4096;
  u32 epoch_ = 0;
  // The sampler is process-global: the driver's ticks and the flight
  // recorder's snapshots both reach it; the spinlock covers the column
  // table and the frame ring. enable()/export are setup calls between runs.
  mutable SpinLock mu_;
  std::vector<std::string> names_;            ///< column order, append-only
  std::map<std::string, std::size_t> index_;  ///< series name -> column
  std::deque<Frame> ring_;
};

/// Posts the periodic Sampler::tick events into one cluster's simulator.
/// Construction stamps a new epoch; destruction cancels the pending tick so
/// the handle never outlives the simulator.
class SamplerDriver {
 public:
  explicit SamplerDriver(sim::Simulator& sim);
  ~SamplerDriver();

  SamplerDriver(const SamplerDriver&) = delete;
  SamplerDriver& operator=(const SamplerDriver&) = delete;

 private:
  void arm();

  sim::Simulator& sim_;
  sim::EventHandle handle_;
};

}  // namespace p4ce::obs
