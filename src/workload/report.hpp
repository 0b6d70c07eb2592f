// Plain-text table printing for the benchmark harness — every bench prints
// the rows/series the paper's corresponding table or figure reports — plus
// the BenchSession wrapper that exports the same results (and each cluster
// run's metrics, attribution and traces) as machine-readable JSON.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce::core {
class Cluster;
}  // namespace p4ce::core

namespace p4ce::obs {
struct Context;
}  // namespace p4ce::obs

namespace p4ce::workload {

/// A fixed-width text table with a title and a caption line referencing the
/// paper artefact it regenerates.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void add_row(std::vector<std::string> cells);
  void print() const;

  const std::string& title() const noexcept { return title_; }
  const std::vector<std::string>& columns() const noexcept { return columns_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept { return rows_; }

  static std::string fmt(double value, int precision = 2);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section heading for a bench binary.
void print_header(const std::string& experiment, const std::string& paper_claim);

/// One bench binary's observability scope. Construction reads the
/// environment:
///   P4CE_TRACE=1|<path>     enable consensus-instance tracing (a value other
///                           than 0/1 is used as the trace output path)
///   P4CE_TRACE_SAMPLE=<n>   trace every n-th instance (default 1)
///   P4CE_ATTR=1             enable commit-latency attribution
///   P4CE_SAMPLE_US=<n>      enable the telemetry sampler, period n µs
///   P4CE_FLIGHT=1           enable the fault flight recorder
///   P4CE_BENCH_DIR=<dir>    output directory (default ".")
/// The observability variables only switch a pillar on: unset, empty or 0
/// leaves it at the bench's default. A bench opts a pillar in by default with
/// the enable_*() methods. Each cluster the bench builds is attach()ed right
/// after Cluster::create: the session switches the enabled pillars on in
/// that cluster's own obs::Context (one call each) and keeps the context, so
/// every run is observed in isolation. finish() — or the destructor —
/// writes BENCH_<name>.json (schema p4ce-bench-v1: a meta block with the
/// host's cores, the backend, the build type, the session's wall seconds and
/// the process's peak RSS; recorded values, tables,
/// and one "runs" entry per attached cluster with its attribution report
/// when enabled and its metrics snapshot) plus, when tracing, the Chrome
/// trace TRACE_<name>.json (run i is process i+1), when sampling,
/// SERIES_<name>.json, and when a flight recorder captured anything,
/// FLIGHT_<name>.json. In SERIES and FLIGHT frames the epoch column is the
/// run's index in attach order.
class BenchSession {
 public:
  explicit BenchSession(std::string name);
  ~BenchSession();

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  /// Record a scalar result, e.g. add_value("goodput_gbps", 3.2).
  void add_value(const std::string& key, double value);

  /// Record the protocol backend for the meta block: "mu", "p4ce",
  /// "one_sided", or "mixed" for benches that compare several in one run.
  void set_backend(std::string backend) { meta_backend_ = std::move(backend); }
  /// Record a result table (call right before or after table.print()).
  void add_table(const Table& table);

  /// Bench defaults for the observability pillars. They apply to clusters
  /// attached afterwards; the first sampler period set (the environment's,
  /// if any) wins.
  void enable_attribution();
  void enable_sampler(Duration period = 100'000);
  void enable_flight_recorder();

  /// Observe `cluster` as the next run: call right after Cluster::create.
  void attach(core::Cluster& cluster);

  /// Write the JSON artefacts (idempotent; also run by the destructor).
  void finish();

 private:
  struct Run {
    std::string backend;
    u32 machines = 0;
    u32 domains = 0;
    std::shared_ptr<obs::Context> obs;
  };

  std::string path_for(const std::string& prefix) const;

  std::string name_;
  std::chrono::steady_clock::time_point started_;  // for meta.wall_s
  std::string dir_;
  std::string trace_path_;
  std::string meta_backend_ = "none";
  bool tracing_ = false;
  bool attribution_ = false;
  bool sampling_ = false;
  bool flight_ = false;
  u32 trace_sample_ = 1;
  Duration sample_period_ = 0;
  bool finished_ = false;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<Table> tables_;
  std::vector<Run> runs_;
};

}  // namespace p4ce::workload
