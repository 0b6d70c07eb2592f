// Metrics registry: named counters, gauges and latency histograms, one
// registry per simulation run (it lives in that run's obs::Context).
// Components register their instruments once, in their constructors, and
// keep the returned references; the hot path is then a plain add. The
// registry never removes an entry, so those references stay valid for the
// registry's lifetime.
//
// One counted event has one counter. A component whose owners are read one
// by one (a NIC, a node, a switch, a P4CE group) labels its counter with the
// owner, and the snapshot reports the bare family name as the sum of its
// labelled children, so run totals need no second count.
//
// Nothing here is atomic or locked: a run's simulator executes its events
// on one thread, and every instrument belongs to exactly one run.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace p4ce::obs {

/// Monotonic event count (e.g. rdma.qp.retransmits).
class Counter {
 public:
  void inc(u64 n = 1) noexcept { value_ += n; }
  u64 value() const noexcept { return value_; }

 private:
  u64 value_ = 0;
};

/// Point-in-time level plus its high-water mark (e.g.
/// switch.port.ingress_backlog_ns).
class Gauge {
 public:
  void set(double v) noexcept {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  void add(double delta) noexcept { set(value_ + delta); }

  double value() const noexcept { return value_; }
  double high_water() const noexcept { return high_water_; }

 private:
  double value_ = 0;
  double high_water_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or find) an instrument. The returned reference stays valid
  /// for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  using Labels = std::initializer_list<std::pair<std::string_view, std::string>>;
  /// Compose a labelled series name: label("rdma.nic.rx_overflows",
  /// {{"nic", "host3"}}) -> "rdma.nic.rx_overflows{nic=host3}". Labels are
  /// written into the name in the order given; keep call sites consistent.
  static std::string label(std::string_view name, Labels kv);
  /// The counter of one owner: counter(label(name, kv)).
  Counter& counter(std::string_view name, Labels kv) { return counter(label(name, kv)); }

  // --- Snapshot ---------------------------------------------------------

  struct Series {
    enum class Kind { kCounter, kGauge, kHistogram };
    std::string name;
    Kind kind = Kind::kCounter;
    u64 count = 0;       ///< counter value, or histogram sample count
    double value = 0;    ///< gauge level
    double high_water = 0;
    double mean = 0, p50 = 0, p99 = 0, min = 0, max = 0;  ///< histogram summary
  };
  struct Snapshot {
    std::vector<Series> series;  ///< sorted by name
    /// The series named exactly `name`, or nullptr.
    const Series* find(std::string_view name) const noexcept;
  };

  /// Every instrument, sorted by name. A counter family `name` reports its
  /// bare counter's own count plus every `name{...}` child's, and appears
  /// once any of them is registered.
  Snapshot snapshot() const;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Append `snapshot` rendered as a JSON object, {"name": {"type": ..}, ..},
/// to `out`.
void append_snapshot_json(std::string& out, const MetricsRegistry::Snapshot& snapshot);

/// Minimal JSON string escaping for names and table cells.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace p4ce::obs
