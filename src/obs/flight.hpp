// Fault flight recorder: when something goes wrong in a run — a leader
// failover, a term change, a retransmit burst, a switch losing power — the
// trigger site calls FlightRecorder::trigger() and the recorder freezes a
// capture: the trigger's identity, the most recent telemetry frames from the
// Sampler (the "what led up to this" window) and the consensus rounds the
// Tracer still had in flight (the likely victims). Captures export as
// FLIGHT_*.json so every chaos / failover run produces a causal timeline of
// its faults instead of just a pass/fail verdict.
//
// Triggers are rate-limited per kind (a retransmit storm should yield one
// capture, not thousands) and the capture count is bounded; everything past
// the limits is counted in dropped(). One recorder per simulation run (in its
// obs::Context), so the limits and the rate limiter see one simulated
// clock. As with the tracer, the `is_enabled()` flag keeps disabled runs
// byte-identical.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace p4ce::obs {

class FlightRecorder {
 public:
  struct Capture {
    std::string kind;         ///< e.g. "leader_failover", "switch_failure"
    SimTime at = 0;
    std::string detail_name;  ///< optional, e.g. "term" / "node" / "qpn"
    u64 detail = 0;
    std::vector<std::string> series;    ///< sampler columns at capture time
    std::vector<Sampler::Frame> frames; ///< trailing telemetry window
    std::vector<Tracer::InFlight> rounds;  ///< tracer rounds still in flight
  };

  /// Captures freeze `sampler`'s trailing frames and `tracer`'s in-flight
  /// rounds.
  FlightRecorder(const Sampler& sampler, const Tracer& tracer) noexcept
      : sampler_(sampler), tracer_(tracer) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The hot-path guard every trigger site checks first.
  bool is_enabled() const noexcept { return enabled_; }

  /// Arm the recorder: keep at most `max_captures`, each holding the last
  /// `frame_window` sampler frames, and ignore repeat triggers of one kind
  /// closer than `min_gap` simulated time apart. The default window (1024
  /// frames; ~100 ms at the benches' 100 µs sampling) comfortably spans a
  /// P4CE leader failover (~41 ms), so the capture includes pre-fault state.
  void enable(std::size_t max_captures = 16, std::size_t frame_window = 1024,
              Duration min_gap = 200'000);
  void disable() noexcept { enabled_ = false; }

  /// Record an anomaly. `kind` must be a string literal (stored by value,
  /// but compared per trigger); returns true if a capture was taken.
  bool trigger(const char* kind, SimTime at, const char* detail_name = nullptr, u64 detail = 0);

  std::size_t capture_count() const noexcept { return captures_.size(); }
  const std::vector<Capture>& captures() const noexcept { return captures_; }
  u64 dropped() const noexcept { return dropped_; }

  /// {"schema": "p4ce-flight-v1", "dropped": .., "captures": [
  ///   {"kind": .., "at_ns": .., "detail": {..}, "rounds": [..],
  ///    "series": [..], "frames": [[t_ns, epoch, ...], ...]}, ...]}
  ///  with epoch 0.
  void append_json(std::string& out) const { append_json(out, {this}); }
  bool write_json(const std::string& path) const;
  /// The same document for several runs: their captures in run order, run
  /// i's frames with epoch i, and "dropped" summed over the runs.
  static void append_json(std::string& out, const std::vector<const FlightRecorder*>& runs);

 private:
  const Sampler& sampler_;
  const Tracer& tracer_;
  bool enabled_ = false;
  std::size_t max_captures_ = 16;
  std::size_t frame_window_ = 256;
  Duration min_gap_ = 200'000;
  u64 dropped_ = 0;
  std::map<std::string, SimTime> last_by_kind_;
  std::vector<Capture> captures_;
};

}  // namespace p4ce::obs
