#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace p4ce::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::string MetricsRegistry::label(std::string_view name, Labels kv) {
  std::string out(name);
  if (kv.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : kv) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  out += '}';
  return out;
}

const MetricsRegistry::Series* MetricsRegistry::Snapshot::find(
    std::string_view name) const noexcept {
  for (const auto& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.series.reserve(counters_.size() + gauges_.size() + histograms_.size());
  const auto add_counter = [&snap](std::string name, u64 count) {
    Series s;
    s.name = std::move(name);
    s.kind = Series::Kind::kCounter;
    s.count = count;
    snap.series.push_back(std::move(s));
  };
  // Each counter adds to its family's total: the name up to its labels.
  std::map<std::string_view, u64> totals;
  for (const auto& [name, c] : counters_) {
    const std::size_t labels = name.find('{');
    totals[std::string_view(name).substr(0, labels)] += c->value();
    if (labels != std::string::npos) add_counter(name, c->value());
  }
  for (const auto& [family, total] : totals) add_counter(std::string(family), total);
  for (const auto& [name, g] : gauges_) {
    Series s;
    s.name = name;
    s.kind = Series::Kind::kGauge;
    s.value = g->value();
    s.high_water = g->high_water();
    snap.series.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    Series s;
    s.name = name;
    s.kind = Series::Kind::kHistogram;
    s.count = h->count();
    s.mean = h->mean_ns();
    s.p50 = h->p50_ns();
    s.p99 = h->p99_ns();
    s.min = h->min_ns();
    s.max = h->max_ns();
    snap.series.push_back(std::move(s));
  }
  std::sort(snap.series.begin(), snap.series.end(),
            [](const Series& a, const Series& b) { return a.name < b.name; });
  return snap;
}

void append_json_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {
void append_number(std::string& out, double v) {
  char buf[64];
  // Integral values print without a fractional part so counters stay exact.
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  out += buf;
}
}  // namespace

void append_snapshot_json(std::string& out, const MetricsRegistry::Snapshot& snapshot) {
  out += '{';
  bool first = true;
  for (const auto& s : snapshot.series) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    append_json_escaped(out, s.name);
    out += ": {";
    switch (s.kind) {
      case MetricsRegistry::Series::Kind::kCounter:
        out += "\"type\": \"counter\", \"value\": ";
        append_number(out, static_cast<double>(s.count));
        break;
      case MetricsRegistry::Series::Kind::kGauge:
        out += "\"type\": \"gauge\", \"value\": ";
        append_number(out, s.value);
        out += ", \"high_water\": ";
        append_number(out, s.high_water);
        break;
      case MetricsRegistry::Series::Kind::kHistogram:
        out += "\"type\": \"histogram\", \"count\": ";
        append_number(out, static_cast<double>(s.count));
        out += ", \"mean\": ";
        append_number(out, s.mean);
        out += ", \"p50\": ";
        append_number(out, s.p50);
        out += ", \"p99\": ";
        append_number(out, s.p99);
        out += ", \"min\": ";
        append_number(out, s.min);
        out += ", \"max\": ";
        append_number(out, s.max);
        break;
    }
    out += '}';
  }
  out += "\n  }";
}

}  // namespace p4ce::obs
