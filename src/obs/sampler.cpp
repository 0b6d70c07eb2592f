#include "obs/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p4ce::obs {

void Sampler::enable(Duration period, std::size_t capacity) {
  period_ = std::max<Duration>(period, 1);
  capacity_ = std::max<std::size_t>(capacity, 1);
  ring_.clear();
  enabled_ = true;
  if (clock_ != nullptr) arm(*clock_, ++chain_);
}

void Sampler::arm(sim::Simulator& sim, u64 chain) {
  sim.schedule(period_, [this, &sim, chain] {
    if (!enabled_ || chain != chain_) return;  // disabled or re-enabled: stop
    tick(sim.now());
    arm(sim, chain);
  });
}

std::size_t Sampler::column_for(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const std::size_t column = names_.size();
  names_.push_back(name);
  index_.emplace(name, column);
  return column;
}

void Sampler::tick(SimTime now) {
  if (!enabled_) return;
  const MetricsRegistry::Snapshot snapshot = registry_.snapshot();
  Frame frame;
  frame.at = now;
  // Columns are append-only across the run, so a frame is a prefix-aligned
  // row: any series that existed when it was taken lands at its column, and
  // columns born later are simply absent (padded with null on export).
  for (const auto& series : snapshot.series) {
    const std::size_t column = column_for(series.name);
    if (frame.values.size() <= column) frame.values.resize(column + 1, 0.0);
    switch (series.kind) {
      case MetricsRegistry::Series::Kind::kCounter:
        frame.values[column] = static_cast<double>(series.count);
        break;
      case MetricsRegistry::Series::Kind::kGauge:
        frame.values[column] = series.value;
        break;
      case MetricsRegistry::Series::Kind::kHistogram:
        frame.values[column] = static_cast<double>(series.count);
        break;
    }
  }
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(std::move(frame));
}

std::vector<Sampler::Frame> Sampler::last_frames(std::size_t n) const {
  const std::size_t take = std::min(n, ring_.size());
  return std::vector<Frame>(ring_.end() - static_cast<std::ptrdiff_t>(take), ring_.end());
}

namespace {

void append_num(std::string& out, double v) {
  if (std::isnan(v)) {  // a column this frame has no value for
    out += "null";
    return;
  }
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

/// `"series": [..], "frames": [` — the rows follow.
void append_columns(std::string& out, const std::vector<std::string>& names) {
  out += "\"series\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ", ";
    append_json_escaped(out, names[i]);
  }
  out += "],\n  \"frames\": [";
}

/// One frame row, [t_ns, epoch, v0, v1, ...], padded with null to `columns`.
void append_row(std::string& out, bool first, SimTime at, u32 epoch,
                const std::vector<double>& values, std::size_t columns) {
  out += first ? "\n    [" : ",\n    [";
  append_num(out, static_cast<double>(at));
  out += ", ";
  append_num(out, epoch);
  for (std::size_t c = 0; c < columns; ++c) {
    out += ", ";
    if (c < values.size()) {
      append_num(out, values[c]);
    } else {
      out += "null";
    }
  }
  out += "]";
}

}  // namespace

void Sampler::append_frames_json(std::string& out, const std::vector<std::string>& names,
                                 const std::vector<Frame>& frames, u32 epoch) {
  append_columns(out, names);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    append_row(out, f == 0, frames[f].at, epoch, frames[f].values, names.size());
  }
  out += "\n  ]";
}

void Sampler::append_json(std::string& out, const std::vector<const Sampler*>& runs) {
  std::vector<std::string> names;
  std::map<std::string, std::size_t> column;
  for (const Sampler* run : runs) {
    for (const auto& name : run->names_) {
      if (column.emplace(name, names.size()).second) names.push_back(name);
    }
  }
  out += "{\n  \"schema\": \"p4ce-series-v1\",\n  \"period_ns\": ";
  append_num(out, static_cast<double>(runs.empty() ? 0 : runs.front()->period_));
  out += ",\n  ";
  append_columns(out, names);
  bool first = true;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const Frame& frame : runs[r]->ring_) {
      std::vector<double> row(names.size(), std::nan(""));
      for (std::size_t c = 0; c < frame.values.size(); ++c) {
        row[column.at(runs[r]->names_[c])] = frame.values[c];
      }
      append_row(out, first, frame.at, static_cast<u32>(r), row, names.size());
      first = false;
    }
  }
  out += "\n  ]\n}\n";
}

}  // namespace p4ce::obs
