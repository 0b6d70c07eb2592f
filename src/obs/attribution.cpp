#include "obs/attribution.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"

namespace p4ce::obs {

void LatencyAttribution::record_round(const RoundTiming& t) {
  if (t.start < record_from_) return;
  ++rounds_;
  if (t.committed) ++committed_;
  total_.record(std::max<Duration>(t.end - t.start, 0));

  // Stage boundaries in causal order; the final stage always closes at the
  // round's end. An unobserved boundary (-1) is skipped, which folds its
  // wall time into the next observed stage, so the recorded durations of a
  // round always sum to its end-to-end latency.
  const std::array<SimTime, kStageCount> boundary = {
      t.propose_end, t.post_end,  t.scatter_first, t.scatter_last,
      t.gather_first, t.quorum_at, t.ack_rx,       t.end};
  SimTime prev = t.start;
  Duration longest = -1;
  u32 longest_stage = kStageCount;
  for (u32 s = 0; s < kStageCount; ++s) {
    const SimTime at = s + 1 == kStageCount ? t.end : boundary[s];
    if (at < 0) continue;
    const Duration d = std::max<Duration>(at - prev, 0);
    stages_[s].record(d);
    if (d > longest) {
      longest = d;
      longest_stage = s;
    }
    prev = std::max(prev, at);
  }
  if (longest_stage < kStageCount) ++dominant_[longest_stage];
}

LatencyAttribution::Stage LatencyAttribution::dominant_stage() const noexcept {
  u64 best = 0;
  Stage stage = kStageCount;
  for (u32 s = 0; s < kStageCount; ++s) {
    if (dominant_[s] > best) {
      best = dominant_[s];
      stage = static_cast<Stage>(s);
    }
  }
  return stage;
}

const char* LatencyAttribution::stage_name(Stage s) noexcept {
  switch (s) {
    case kLeaderCpu: return "leader.cpu";
    case kLeaderPost: return "leader.post";
    case kLinkToSwitch: return "link.to_switch";
    case kSwitchScatter: return "switch.scatter";
    case kReplicaAck: return "replica.ack";
    case kQuorumGather: return "gather.quorum";
    case kLinkToLeader: return "link.to_leader";
    case kCommitCpu: return "commit.cpu";
    case kStageCount: break;
  }
  return "none";
}

namespace {

void append_num(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

void append_hist(std::string& out, const LatencyHistogram& h) {
  out += "{\"count\": ";
  append_num(out, static_cast<double>(h.count()));
  out += ", \"mean_ns\": ";
  append_num(out, h.mean_ns());
  out += ", \"p50_ns\": ";
  append_num(out, h.p50_ns());
  out += ", \"p99_ns\": ";
  append_num(out, h.p99_ns());
  out += ", \"p999_ns\": ";
  append_num(out, h.p999_ns());
  out += ", \"max_ns\": ";
  append_num(out, h.max_ns());
  out += "}";
}

}  // namespace

void LatencyAttribution::append_json(std::string& out) const {
  out += "{\n    \"rounds\": ";
  append_num(out, static_cast<double>(rounds_));
  out += ",\n    \"committed\": ";
  append_num(out, static_cast<double>(committed_));
  out += ",\n    \"dominant_stage\": ";
  append_json_escaped(out, stage_name(dominant_stage()));
  out += ",\n    \"total\": ";
  append_hist(out, total_);
  out += ",\n    \"stages\": {";
  for (u32 s = 0; s < kStageCount; ++s) {
    out += s == 0 ? "\n      " : ",\n      ";
    append_json_escaped(out, stage_name(static_cast<Stage>(s)));
    out += ": ";
    append_hist(out, stages_[s]);
    out.pop_back();  // reopen the histogram object to append the tally
    out += ", \"dominant\": ";
    append_num(out, static_cast<double>(dominant_[s]));
    out += "}";
  }
  out += "\n    }\n  }";
}

}  // namespace p4ce::obs
