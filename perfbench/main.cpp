// p4ce repository benchmark. One workload per process, one cluster at a time
// on the serial simulation kernel.
//
//   p4ce_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--cpu-post-wr-ns <ns>] [--callback-spin-ns <ns>]
//
// An episode is one fixed simulated experiment: set-up, warm-up, measured
// window, drain and output check, driven by a sub-seed derived from --seed.
// A run first plays the workload's sub-seeds once each, then replays them
// until --seconds of wall time have passed; a replay must reproduce its
// sub-seed's simulated metrics and counts bit for bit. Simulated metrics and
// counts are the median over the sub-seeds, so they are a function of
// (workload, seed, code) alone; host timings are medians over all episodes,
// and host_commits_per_s is scaled to a reference host speed measured next
// to every window (reference.hpp).
// With --trace 1 the cycles alternate between traced (per-call host timing)
// and untraced, and the run reports per-layer metrics and the tracing
// overhead. The last line of stdout is the JSON result; a failed output
// check exits with code 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <string>
#include <vector>

#include "driver.hpp"
#include "reference.hpp"

namespace {

using perfbench::EpisodeResult;
using perfbench::Metrics;

struct Unit {
  const char* name;
  const char* unit;
};

// Every metric the benchmark prints, with its unit; BENCHMARK.json lists the
// same names.
constexpr Unit kEndToEnd[] = {
    {"sim_commit_rate_mops", "M/s"}, {"sim_commit_p50_us", "us"},
    {"sim_commit_p99_us", "us"},     {"sim_commit_p999_us", "us"},
    {"sim_goodput_gbps", "GB/s"},    {"sim_unavailable_ms", "ms"},
    {"host_commits_per_s", "1/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr Unit kPerLayer[] = {
    {"sim.events_per_commit", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.allocs_per_commit", "count"},
    {"sim.alloc_bytes_per_commit", "B"},
    {"net.wire_bytes_per_commit", "B"},
    {"net.leader_tx_util", "ratio"},
    {"rdma.packets_per_commit", "count"},
    {"rdma.leader_tx_packets_per_commit", "count"},
    {"rdma.dropped", "count"},
    {"rdma.rx_overflows", "count"},
    {"switchsim.drops", "count"},
    {"switchsim.punted", "count"},
    {"p4ce.scatter_per_commit", "count"},
    {"p4ce.acks_gathered_per_commit", "count"},
    {"p4ce.ack_forward_ratio", "ratio"},
    {"p4ce.naks_forwarded", "count"},
    {"p4ce.l3_forwarded_per_commit", "count"},
    {"consensus.propose_host_ns", "ns"},
    {"consensus.propose_allocs_per_call", "count"},
    {"consensus.fast_path_share", "ratio"},
    {"consensus.fallbacks", "count"},
    {"consensus.reaccelerations", "count"},
    {"consensus.election_ms", "ms"},
    {"consensus.term_changes", "count"},
    {"consensus.follower_lag_p50_us", "us"},
    {"consensus.follower_lag_p99_us", "us"},
    {"core.create_s", "s"},
    {"core.start_s", "s"},
    {"driver.resume_ms", "ms"},
    {"driver.backlog_peak", "count"},
    {"driver.latency_samples", "count"},
    {"driver.failed_share", "ratio"},
    {"driver.traced_host_commits_per_s", "1/s"},
    {"driver.host_commits_per_wall_s", "1/s"},
    {"driver.reference_mevents_per_s", "M/s"},
    {"driver.trace_overhead_share", "ratio"},
};

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: p4ce_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--cpu-post-wr-ns <ns>] [--callback-spin-ns <ns>]\n",
               why);
  std::exit(2);
}

void print_result(bool correct, unsigned long long attempted, unsigned long long failed,
                  const Unit* units, std::size_t count, const Metrics& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(units[i].name);
    const double v = it == values.end() || !std::isfinite(it->second) ? 0 : it->second;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (i ? ", \"" : "\"") + std::string(units[i].name) + "\": {\"value\": " + num +
           ", \"unit\": \"" + units[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation from the heap and keep freed memory, so each
  // episode's set-up reuses the previous episode's pages. Otherwise every
  // Cluster::create maps its logs afresh, and set-up time is dominated by
  // the kernel's page-fault path, which varies 2x with the machine's load.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  perfbench::Knobs knobs;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--cpu-post-wr-ns") {
      knobs.cpu_post_wr = std::strtoll(value, &end, 10);
    } else if (flag == "--callback-spin-ns") {
      knobs.callback_spin_ns = std::strtoull(value, &end, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr) usage("unknown or missing --workload");
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    usage("--seed >= 0, --seconds > 0 and --trace 0|1 are required");
  }

  // The first cycle runs one episode per sub-seed; later cycles replay them
  // until the wall budget is spent. A traced run alternates traced and
  // untraced cycles, so it needs two.
  const std::size_t k_count = perfbench::kSubSeeds;
  const std::size_t min_episodes = k_count * (trace == 1 ? 2 : 1);
  std::vector<EpisodeResult> episodes;
  bool correct = true;
  const double start = wall_now();
  while (correct && (episodes.size() < min_episodes || wall_now() - start < seconds)) {
    const std::size_t k = episodes.size() % k_count;
    const bool traced = trace == 1 && (episodes.size() / k_count) % 2 == 0;
    EpisodeResult ep = perfbench::run_episode(*spec, static_cast<unsigned long long>(seed), k,
                                              traced, knobs);
    // Determinism is part of the output check: a sub-seed must replay the
    // same simulated history, traced or not.
    if (ep.correct && episodes.size() >= k_count &&
        (ep.sim != episodes[k].sim || ep.counts != episodes[k].counts)) {
      ep.correct = false;
      ep.violation = "sub-seed " + std::to_string(k) + " did not replay identically";
    }
    if (!ep.correct) {
      correct = false;
      std::fprintf(stderr, "output check failed: %s\n", ep.violation.c_str());
    }
    episodes.push_back(std::move(ep));
  }

  unsigned long long attempted = 0, failed = 0;
  std::vector<double> setup, create, start_s, rate_untraced, rate_traced, wall_rate, reference;
  for (const EpisodeResult& ep : episodes) {
    attempted += ep.attempted;
    failed += ep.failed;
    setup.push_back(ep.create_s + ep.start_s);
    create.push_back(ep.create_s);
    start_s.push_back(ep.start_s);
    // Commits per host second, scaled to the reference host speed.
    const double rate = static_cast<double>(ep.window_commits) / ep.window_host_s;
    const double scaled = rate * perfbench::kReferenceMevents / ep.reference_mevents;
    (ep.host.empty() ? rate_untraced : rate_traced).push_back(scaled);
    if (ep.host.empty()) wall_rate.push_back(rate);
    reference.push_back(ep.reference_mevents);
  }
  // Per metric, the median over the first cycle's sub-seeds (over every
  // episode after the first for allocation counts, which the first pays
  // the library's lazy initialisation into).
  auto median_of = [&](Metrics EpisodeResult::*field, std::size_t from, std::size_t to) {
    Metrics merged;
    for (const auto& [name, value] : episodes[from].*field) {
      std::vector<double> v;
      for (std::size_t i = from; i < to; ++i) {
        const Metrics& m = episodes[i].*field;
        if (m.count(name)) v.push_back(m.at(name));
      }
      merged[name] = median(v);
    }
    return merged;
  };
  const std::size_t first_cycle = std::min(k_count, episodes.size());
  std::fprintf(stderr,
               "%s seed=%lld episodes=%zu latency_samples=%.0f wall_commits_per_s=%.0f "
               "reference_mevents_per_s=%.3f\n",
               workload.c_str(), seed, episodes.size(),
               episodes.front().counts["driver.latency_samples"], median(wall_rate),
               median(reference));

  Metrics out;
  if (trace == 0) {
    out = median_of(&EpisodeResult::sim, 0, first_cycle);
    out["host_commits_per_s"] = median(rate_untraced);
    out["setup_s"] = median(setup);
    out["peak_rss_mb"] = peak_rss_mb();
    print_result(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd), out);
  } else {
    out = median_of(&EpisodeResult::counts, 0, first_cycle);
    out.merge(median_of(&EpisodeResult::allocs, episodes.size() > 1 ? 1 : 0, episodes.size()));
    out.merge(median_of(&EpisodeResult::host, 0, first_cycle));
    out["core.create_s"] = median(create);
    out["core.start_s"] = median(start_s);
    const double traced = median(rate_traced);
    const double untraced = median(rate_untraced);
    out["driver.traced_host_commits_per_s"] = traced;
    out["driver.host_commits_per_wall_s"] = median(wall_rate);
    out["driver.reference_mevents_per_s"] = median(reference);
    out["driver.trace_overhead_share"] = untraced > 0 ? 1.0 - traced / untraced : 0;
    print_result(correct, attempted, failed, kPerLayer, std::size(kPerLayer), out);
  }
  return correct ? 0 : 1;
}
