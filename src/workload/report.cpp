#include "workload/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <tuple>

#include "common/logging.hpp"
#include "obs/attribution.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"

namespace p4ce::workload {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string Table::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

void Table::print() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) widths[i] = columns_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::printf("\n  %s\n", title_.c_str());
  std::printf("  ");
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%-*s  ", static_cast<int>(widths[i]), columns_[i].c_str());
  }
  std::printf("\n  ");
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    std::printf("%s  ", std::string(widths[i], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    std::printf("  ");
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// BenchSession
// ---------------------------------------------------------------------------

namespace {

void append_number_json(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

BenchSession::BenchSession(std::string name) : name_(std::move(name)) {
  set_log_level_from_env();

  if (const char* dir = std::getenv("P4CE_BENCH_DIR"); dir != nullptr && dir[0] != '\0') {
    dir_ = dir;
  } else {
    dir_ = ".";
  }
  if (const char* flag = std::getenv("P4CE_BENCH_JSON");
      flag != nullptr && std::strcmp(flag, "0") == 0) {
    json_enabled_ = false;
  }

  if (const char* trace = std::getenv("P4CE_TRACE");
      trace != nullptr && trace[0] != '\0' && std::strcmp(trace, "0") != 0) {
    tracing_ = true;
    if (std::strcmp(trace, "1") != 0 && std::strcmp(trace, "true") != 0) trace_path_ = trace;
    u32 sample = 1;
    if (const char* s = std::getenv("P4CE_TRACE_SAMPLE"); s != nullptr) {
      const long parsed = std::strtol(s, nullptr, 10);
      if (parsed > 0) sample = static_cast<u32>(parsed);
    }
    obs::Tracer::global().enable(sample);
    obs::Tracer::global().clear();
  }

  // Observability pillar tri-states: unset = bench default (enable_*()),
  // "0" = force off (even against a bench default), anything else = force on.
  const char* attr_env = std::getenv("P4CE_ATTR");
  attr_forced_off_ = attr_env != nullptr && std::strcmp(attr_env, "0") == 0;
  const char* sample_env = std::getenv("P4CE_SAMPLE_US");
  long sample_us = -1;
  if (sample_env != nullptr && sample_env[0] != '\0') {
    sample_us = std::strtol(sample_env, nullptr, 10);
  }
  sampler_forced_off_ = sample_us == 0;
  const char* flight_env = std::getenv("P4CE_FLIGHT");
  flight_forced_off_ = flight_env != nullptr && std::strcmp(flight_env, "0") == 0;

  // The dump should describe exactly this run, not whatever static
  // initialization or a previous session in the same process left behind.
  obs::MetricsRegistry::global().reset();
  obs::LatencyAttribution::global().reset();
  obs::Sampler::global().reset();
  obs::FlightRecorder::global().reset();

  if (attr_env != nullptr && !attr_forced_off_) enable_attribution();
  if (sample_us > 0) enable_sampler(static_cast<Duration>(sample_us) * 1'000);
  if (flight_env != nullptr && !flight_forced_off_) enable_flight_recorder();

  if (const char* backend = std::getenv("P4CE_BACKEND")) {
    const std::string b(backend);
    if (b == "mu" || b == "p4ce" || b == "one_sided") meta_backend_ = b;
  }
}

BenchSession::~BenchSession() { finish(); }

void BenchSession::add_value(const std::string& key, double value) {
  values_.emplace_back(key, value);
}

void BenchSession::add_table(const Table& table) { tables_.push_back(table); }

void BenchSession::enable_attribution() {
  if (attr_forced_off_ || attribution_) return;
  attribution_ = true;
  // Order matters: enable_attribution() keeps the tracer's sample rate when
  // the P4CE_TRACE block above already configured one.
  obs::Tracer::global().enable_attribution();
  obs::LatencyAttribution::global().enable();
}

void BenchSession::enable_sampler(Duration period) {
  if (sampler_forced_off_ || sampling_) return;
  sampling_ = true;
  obs::Sampler::global().enable(period);
}

void BenchSession::enable_flight_recorder() {
  if (flight_forced_off_ || flight_) return;
  flight_ = true;
  obs::FlightRecorder::global().enable();
}

std::string BenchSession::path_for(const std::string& prefix) const {
  return dir_ + "/" + prefix + "_" + name_ + ".json";
}

void BenchSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (!json_enabled_) return;

  const u32 hw = std::max(1u, std::thread::hardware_concurrency());

  std::string out = "{\n  \"schema\": \"p4ce-bench-v1\",\n  \"bench\": ";
  obs::append_json_escaped(out, name_);
  out += ",\n  \"meta\": {\"hw_cores\": ";
  append_number_json(out, hw);
  out += ", \"backend\": ";
  obs::append_json_escaped(out, meta_backend_);
  out += "},\n  \"values\": {";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    obs::append_json_escaped(out, values_[i].first);
    out += ": ";
    append_number_json(out, values_[i].second);
  }
  out += "\n  },\n  \"tables\": [";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t];
    out += t == 0 ? "\n    {" : ",\n    {";
    out += "\"title\": ";
    obs::append_json_escaped(out, table.title());
    out += ", \"columns\": [";
    for (std::size_t i = 0; i < table.columns().size(); ++i) {
      if (i != 0) out += ", ";
      obs::append_json_escaped(out, table.columns()[i]);
    }
    out += "], \"rows\": [";
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
      out += r == 0 ? "\n      [" : ",\n      [";
      const auto& row = table.rows()[r];
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i != 0) out += ", ";
        obs::append_json_escaped(out, row[i]);
      }
      out += "]";
    }
    out += "\n    ]}";
  }
  out += "\n  ],\n";
  if (attribution_) {
    out += "  \"attribution\": ";
    obs::LatencyAttribution::global().append_json(out);
    out += ",\n";
  }
  out += "  \"metrics\": ";
  obs::append_snapshot_json(out, obs::MetricsRegistry::global().snapshot());
  out += "\n}\n";

  if (!write_file(path_for("BENCH"), out)) {
    std::fprintf(stderr, "warning: could not write %s\n", path_for("BENCH").c_str());
  }

  if (sampling_ && obs::Sampler::global().frame_count() > 0) {
    if (!obs::Sampler::global().write_json(path_for("SERIES"))) {
      std::fprintf(stderr, "warning: could not write %s\n", path_for("SERIES").c_str());
    }
  }
  if (flight_ && obs::FlightRecorder::global().capture_count() > 0) {
    if (!obs::FlightRecorder::global().write_json(path_for("FLIGHT"))) {
      std::fprintf(stderr, "warning: could not write %s\n", path_for("FLIGHT").c_str());
    } else {
      std::printf("\nflight recorder: %s (%zu captures)\n", path_for("FLIGHT").c_str(),
                  obs::FlightRecorder::global().capture_count());
    }
  }

  if (tracing_) {
    std::ignore = obs::MetricsRegistry::global().write_json(path_for("METRICS"));
    const std::string trace_out = trace_path_.empty() ? path_for("TRACE") : trace_path_;
    if (!obs::Tracer::global().write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "warning: could not write %s\n", trace_out.c_str());
    } else {
      std::printf("\ntrace: %s (%zu events%s)\n", trace_out.c_str(),
                  obs::Tracer::global().event_count(),
                  obs::Tracer::global().overflowed() ? ", buffer overflowed" : "");
    }
  }
}

void print_header(const std::string& experiment, const std::string& paper_claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================================\n");
  std::fflush(stdout);
}

}  // namespace p4ce::workload
