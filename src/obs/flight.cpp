#include "obs/flight.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace p4ce::obs {

void FlightRecorder::enable(std::size_t max_captures, std::size_t frame_window,
                            Duration min_gap) {
  max_captures_ = std::max<std::size_t>(max_captures, 1);
  frame_window_ = std::max<std::size_t>(frame_window, 1);
  min_gap_ = min_gap;
  enabled_ = true;
}

bool FlightRecorder::trigger(const char* kind, SimTime at, const char* detail_name, u64 detail) {
  if (!enabled_) return false;
  const auto last = last_by_kind_.find(kind);
  if (last != last_by_kind_.end() && at - last->second < min_gap_) {
    ++dropped_;
    return false;
  }
  last_by_kind_[kind] = at;
  if (captures_.size() >= max_captures_) {
    ++dropped_;
    return false;
  }

  Capture capture;
  capture.kind = kind;
  capture.at = at;
  if (detail_name != nullptr) capture.detail_name = detail_name;
  capture.detail = detail;
  capture.series = sampler_.series_names();
  capture.frames = sampler_.last_frames(frame_window_);
  capture.rounds = tracer_.active_rounds();
  captures_.push_back(std::move(capture));
  return true;
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

void append_capture(std::string& out, const FlightRecorder::Capture& capture, u32 epoch) {
  out += "{\n  \"kind\": ";
  append_json_escaped(out, capture.kind);
  out += ",\n  \"at_ns\": ";
  append_num(out, static_cast<double>(capture.at));
  if (!capture.detail_name.empty()) {
    out += ",\n  ";
    append_json_escaped(out, capture.detail_name);
    out += ": ";
    append_num(out, static_cast<double>(capture.detail));
  }
  out += ",\n  \"rounds_in_flight\": [";
  for (std::size_t r = 0; r < capture.rounds.size(); ++r) {
    if (r != 0) out += ", ";
    out += "{\"domain\": ";
    append_num(out, trace_domain(capture.rounds[r].key));
    out += ", \"instance\": ";
    append_num(out, static_cast<double>(trace_op(capture.rounds[r].key)));
    out += ", \"start_ns\": ";
    append_num(out, static_cast<double>(capture.rounds[r].start));
    out += "}";
  }
  out += "],\n  ";
  Sampler::append_frames_json(out, capture.series, capture.frames, epoch);
  out += "\n}";
}

}  // namespace

void FlightRecorder::append_json(std::string& out,
                                 const std::vector<const FlightRecorder*>& runs) {
  u64 dropped = 0;
  for (const FlightRecorder* run : runs) dropped += run->dropped_;
  out += "{\n\"schema\": \"p4ce-flight-v1\",\n\"dropped\": ";
  append_num(out, static_cast<double>(dropped));
  out += ",\n\"captures\": [";
  bool first = true;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const Capture& capture : runs[r]->captures_) {
      out += first ? "\n" : ",\n";
      first = false;
      append_capture(out, capture, static_cast<u32>(r));
    }
  }
  out += "\n]\n}\n";
}

bool FlightRecorder::write_json(const std::string& path) const {
  std::string out;
  append_json(out);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace p4ce::obs
