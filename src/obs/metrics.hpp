// Process-wide metrics registry: named counters, gauges and latency
// histograms registered once per component and incremented on the hot path
// through cached references. Instruments live for the lifetime of the
// process (the registry never removes an entry), so components may cache a
// reference in a function-local static and keep using it across cluster
// rebuilds; reset() zeroes every instrument between bench phases without
// invalidating those references.
//
// The instruments are process-global: every cluster in the process shares
// them (a per-domain gauge is written by every node in the domain, and
// NodeMetrics counters by every node in the process), and nothing confines
// them to one thread, so increments are relaxed atomics: wait-free on the
// hot path, and sane-if-racy for a concurrent reader. The registry itself
// takes a mutex only on registration, snapshot and reset.
#pragma once

#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
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
  void inc(u64 n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

/// Point-in-time level plus its high-water mark since the last reset
/// (e.g. switch.port.parser_backlog_ns). set() is atomic per field: the
/// level is a plain store and the high-water a CAS raise, so concurrent
/// writers to this process-global gauge never lose the maximum (the *pair*
/// is not snapshotted atomically; samplers tolerate that).
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    double hw = high_water_.load(std::memory_order_relaxed);
    while (v > hw &&
           !high_water_.compare_exchange_weak(hw, v, std::memory_order_relaxed)) {
    }
  }
  void add(double delta) noexcept { set(value_.load(std::memory_order_relaxed) + delta); }

  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  double high_water() const noexcept { return high_water_.load(std::memory_order_relaxed); }
  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
  std::atomic<double> high_water_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry all in-stack instrumentation registers with.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or find) an instrument. The returned reference stays valid
  /// for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  /// Compose a labelled series name: label("rdma.qp.retransmits",
  /// {{"qp", "3"}}) -> "rdma.qp.retransmits{qp=3}". Labels are sorted into
  /// the name in the order given; keep call sites consistent.
  static std::string label(std::string_view name,
                           std::initializer_list<std::pair<std::string_view, std::string>> kv);

  // --- Snapshot / reset (between bench phases) --------------------------

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
    /// First series whose name starts with `prefix`, or nullptr.
    const Series* find(std::string_view prefix) const noexcept;
  };

  Snapshot snapshot() const;

  /// Zero every instrument; registrations (and cached references) survive.
  void reset();

  std::size_t size() const;

  /// Snapshot serialized as a JSON object: {"name": {"type": ..., ...}}.
  std::string to_json() const;
  /// Write {"metrics": {...}} to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the instrument values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Append `snapshot` rendered as a JSON object (no surrounding braces key)
/// to `out`. Shared by the registry and the bench exporter.
void append_snapshot_json(std::string& out, const MetricsRegistry::Snapshot& snapshot);

/// Minimal JSON string escaping for names and table cells.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace p4ce::obs
