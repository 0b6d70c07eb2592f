#include "workload/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/cluster.hpp"
#include "obs/context.hpp"

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

/// The value of a switch-on variable, or nullptr when it is unset, empty or "0".
const char* env_on(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0 ? value : nullptr;
}

/// The process's peak resident set (VmHWM) in MB, or 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

BenchSession::BenchSession(std::string name)
    : name_(std::move(name)), started_(std::chrono::steady_clock::now()) {
  if (const char* dir = std::getenv("P4CE_BENCH_DIR"); dir != nullptr && dir[0] != '\0') {
    dir_ = dir;
  } else {
    dir_ = ".";
  }
  if (const char* trace = env_on("P4CE_TRACE")) {
    tracing_ = true;
    if (std::strcmp(trace, "1") != 0 && std::strcmp(trace, "true") != 0) trace_path_ = trace;
    if (const char* s = std::getenv("P4CE_TRACE_SAMPLE"); s != nullptr) {
      const long parsed = std::strtol(s, nullptr, 10);
      if (parsed > 0) trace_sample_ = static_cast<u32>(parsed);
    }
  }

  // The pillar variables only switch on; the bench's enable_*() defaults
  // apply either way.
  if (env_on("P4CE_ATTR")) enable_attribution();
  if (const char* sample_us = env_on("P4CE_SAMPLE_US")) {
    const long parsed = std::strtol(sample_us, nullptr, 10);
    if (parsed > 0) enable_sampler(static_cast<Duration>(parsed) * 1'000);
  }
  if (env_on("P4CE_FLIGHT")) enable_flight_recorder();
}

BenchSession::~BenchSession() { finish(); }

void BenchSession::add_value(const std::string& key, double value) {
  values_.emplace_back(key, value);
}

void BenchSession::add_table(const Table& table) { tables_.push_back(table); }

void BenchSession::enable_attribution() { attribution_ = true; }

void BenchSession::enable_sampler(Duration period) {
  if (sampling_) return;
  sampling_ = true;
  sample_period_ = period;
}

void BenchSession::enable_flight_recorder() { flight_ = true; }

void BenchSession::attach(core::Cluster& cluster) {
  obs::Context& obs = cluster.sim().obs();
  if (tracing_) obs.tracer.enable(trace_sample_);
  if (attribution_) obs.tracer.enable_attribution();
  if (sampling_) obs.sampler.enable(sample_period_);
  if (flight_) obs.recorder.enable();
  runs_.push_back(Run{std::string(core::backend_name(cluster.options().mode)),
                      cluster.options().machines, cluster.domains(),
                      cluster.sim().obs_handle()});
}

std::string BenchSession::path_for(const std::string& prefix) const {
  return dir_ + "/" + prefix + "_" + name_ + ".json";
}

void BenchSession::finish() {
  if (finished_) return;
  finished_ = true;

  const u32 hw = std::max(1u, std::thread::hardware_concurrency());
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - started_;

  std::string out = "{\n  \"schema\": \"p4ce-bench-v1\",\n  \"bench\": ";
  obs::append_json_escaped(out, name_);
  out += ",\n  \"meta\": {\"hw_cores\": ";
  append_number_json(out, hw);
  out += ", \"backend\": ";
  obs::append_json_escaped(out, meta_backend_);
  out += ", \"build_type\": ";
  obs::append_json_escaped(out, P4CE_BUILD_TYPE);
  out += ", \"wall_s\": ";
  append_number_json(out, std::round(wall.count() * 1e3) / 1e3);
  out += ", \"peak_rss_mb\": ";
  append_number_json(out, std::round(peak_rss_mb() * 10) / 10);
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
  out += "\n  ],\n  \"runs\": [";
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    out += r == 0 ? "\n    {\"backend\": " : ",\n    {\"backend\": ";
    obs::append_json_escaped(out, run.backend);
    out += ", \"machines\": ";
    append_number_json(out, run.machines);
    out += ", \"domains\": ";
    append_number_json(out, run.domains);
    if (attribution_) {
      out += ",\n    \"attribution\": ";
      run.obs->attribution.append_json(out);
    }
    out += ",\n    \"metrics\": ";
    obs::append_snapshot_json(out, run.obs->metrics.snapshot());
    out += "}";
  }
  out += "\n  ]\n}\n";

  if (!write_file(path_for("BENCH"), out)) {
    std::fprintf(stderr, "warning: could not write %s\n", path_for("BENCH").c_str());
  }

  // The runs' instruments of one kind, in attach order (= epoch / pid order).
  const auto each_run = [this]<class T>(T obs::Context::*member) {
    std::vector<const T*> out;
    for (const Run& run : runs_) out.push_back(&(*run.obs.*member));
    return out;
  };

  if (sampling_) {
    const auto samplers = each_run(&obs::Context::sampler);
    if (std::any_of(samplers.begin(), samplers.end(),
                    [](const obs::Sampler* s) { return s->frame_count() > 0; })) {
      std::string series;
      obs::Sampler::append_json(series, samplers);
      if (!write_file(path_for("SERIES"), series)) {
        std::fprintf(stderr, "warning: could not write %s\n", path_for("SERIES").c_str());
      }
    }
  }
  if (flight_) {
    const auto recorders = each_run(&obs::Context::recorder);
    std::size_t captures = 0;
    for (const obs::FlightRecorder* r : recorders) captures += r->capture_count();
    if (captures > 0) {
      std::string flight;
      obs::FlightRecorder::append_json(flight, recorders);
      if (!write_file(path_for("FLIGHT"), flight)) {
        std::fprintf(stderr, "warning: could not write %s\n", path_for("FLIGHT").c_str());
      } else {
        std::fprintf(stderr, "flight recorder: %s (%zu captures)\n", path_for("FLIGHT").c_str(),
                     captures);
      }
    }
  }

  if (tracing_) {
    const auto tracers = each_run(&obs::Context::tracer);
    std::size_t events = 0;
    bool overflowed = false;
    for (const obs::Tracer* t : tracers) {
      events += t->event_count();
      overflowed |= t->overflowed();
    }
    const std::string trace_out = trace_path_.empty() ? path_for("TRACE") : trace_path_;
    if (!write_file(trace_out, obs::Tracer::to_chrome_json(tracers))) {
      std::fprintf(stderr, "warning: could not write %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: %s (%zu events%s)\n", trace_out.c_str(), events,
                   overflowed ? ", buffer overflowed" : "");
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
