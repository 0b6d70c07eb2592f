#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"

namespace p4ce::obs {

void Tracer::enable(u32 sample_every, std::size_t max_events) {
  sample_ = sample_every == 0 ? 1 : sample_every;
  max_events_ = max_events;
  overflowed_ = false;
  events_on_ = true;
  enabled_ = true;
}

Tracer::Round* Tracer::find_round(u64 instance) noexcept {
  const auto it = active_.find(instance);
  return it == active_.end() ? nullptr : &it->second;
}

void Tracer::add_wire(const Round& round) {
  for (u32 i = 0; i < round.npkts; ++i) {
    wire_.emplace(psn_add(round.first_psn, i), round.instance);
  }
}

void Tracer::drop_wire(const Round& round) {
  if (!round.has_wire) return;
  for (u32 i = 0; i < round.npkts; ++i) {
    auto [it, end] = wire_.equal_range(psn_add(round.first_psn, i));
    for (; it != end; ++it) {
      if (it->second == round.instance) {
        wire_.erase(it);
        break;
      }
    }
  }
}

void Tracer::push(Event event) {
  if (!events_on_) return;
  if (events_.size() >= max_events_) {
    overflowed_ = true;
    return;
  }
  events_.push_back(event);
}

void Tracer::begin_round(u64 instance, SimTime start) {
  if (!sampled(instance) || find_round(instance) != nullptr) return;
  Round round;
  round.instance = instance;
  round.order = next_order_++;
  round.start = start;
  active_.emplace(instance, round);
}

void Tracer::span(u64 instance, const char* name, SimTime start, SimTime end,
                  const char* arg_name, u64 arg) {
  if (find_round(instance) == nullptr) return;
  push(Event{instance, name, start, std::max<Duration>(end - start, 0), arg_name, arg});
}

void Tracer::instant(u64 instance, const char* name, SimTime at, const char* arg_name, u64 arg) {
  if (find_round(instance) == nullptr) return;
  push(Event{instance, name, at, -1, arg_name, arg});
}

void Tracer::map_wire(u64 instance, Psn first_psn, u32 npkts, Qpn qpn) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  drop_wire(*round);
  round->has_wire = true;
  round->first_psn = first_psn & kPsnMask;
  round->npkts = std::max<u32>(npkts, 1);
  round->wire_qpn = qpn;
  add_wire(*round);
}

u64 Tracer::instance_for_psn(Psn psn, Qpn qpn) const noexcept {
  // The earliest-begun round covering the PSN on a matching QP: a mapping
  // with QPN 0 matches any QP, and so does a lookup with QPN 0.
  const Round* best = nullptr;
  auto [it, end] = wire_.equal_range(psn & kPsnMask);
  for (; it != end; ++it) {
    const Round& round = active_.at(it->second);
    if (qpn != 0 && round.wire_qpn != 0 && round.wire_qpn != qpn) continue;
    if (best == nullptr || round.order < best->order) best = &round;
  }
  return best == nullptr ? 0 : best->instance;
}

void Tracer::mark_propose_done(u64 instance, SimTime at) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  round->propose_end = std::max(round->propose_end, at);
}

void Tracer::mark_post_done(u64 instance, SimTime at) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  round->post_end = std::max(round->post_end, at);
}

void Tracer::mark_ack_rx(u64 instance, SimTime at) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  if (round->ack_rx < 0) round->ack_rx = at;
}

void Tracer::on_scatter(u64 instance, SimTime at) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  if (round->scatter_first < 0) round->scatter_first = at;
  round->scatter_last = std::max(round->scatter_last, at);
}

void Tracer::on_scatter_copy(u64 instance, SimTime at, u32 replica) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  round->scatter_last = std::max(round->scatter_last, at);
  push(Event{instance, "scatter.copy", at, -1, "replica", replica});
}

void Tracer::on_ack(u64 instance, SimTime at, u32 replica) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  if (round->gather_first < 0) round->gather_first = at;
  round->gather_last = std::max(round->gather_last, at);
  push(Event{instance, "replica.ack", at, -1, "replica", replica});
}

void Tracer::on_quorum(u64 instance, SimTime at) {
  Round* round = find_round(instance);
  if (round == nullptr) return;
  round->gather_last = std::max(round->gather_last, at);
  if (round->quorum_at < 0) round->quorum_at = at;
  push(Event{instance, "gather.quorum", at, -1, nullptr, 0});
}

void Tracer::end_round(u64 instance, SimTime end, bool committed) {
  const auto it = active_.find(instance);
  if (it == active_.end()) return;
  const Round round = it->second;
  active_.erase(it);
  drop_wire(round);

  if (round.scatter_first >= 0) {
    push(Event{instance, "switch.scatter", round.scatter_first,
               std::max<Duration>(round.scatter_last - round.scatter_first, 1), nullptr, 0});
  }
  if (round.gather_first >= 0) {
    push(Event{instance, "gather", round.gather_first,
               std::max<Duration>(round.gather_last - round.gather_first, 1), nullptr, 0});
  }
  push(Event{instance, "round", round.start, std::max<Duration>(end - round.start, 1),
             "committed", committed ? 1u : 0u});

  if (attr_on_) {
    RoundTiming timing;
    timing.key = round.instance;
    timing.start = round.start;
    timing.propose_end = round.propose_end;
    timing.post_end = round.post_end;
    timing.scatter_first = round.scatter_first;
    timing.scatter_last = round.scatter_last;
    timing.gather_first = round.gather_first;
    timing.quorum_at = round.quorum_at;
    timing.ack_rx = round.ack_rx;
    timing.end = end;
    timing.committed = committed;
    sink_.record_round(timing);
  }
}

std::vector<Tracer::InFlight> Tracer::active_rounds() const {
  std::vector<const Round*> rounds;
  rounds.reserve(active_.size());
  for (const auto& [instance, round] : active_) rounds.push_back(&round);
  std::sort(rounds.begin(), rounds.end(),
            [](const Round* a, const Round* b) { return a->order < b->order; });
  std::vector<InFlight> out;
  out.reserve(rounds.size());
  for (const Round* round : rounds) out.push_back(InFlight{round->instance, round->start});
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

namespace {

void append_event_json(std::string& out, u32 pid, u64 tid, const char* name, SimTime start,
                       Duration dur, u64 instance, const char* arg_name, u64 arg) {
  char buf[96];
  out += "  {\"name\": ";
  append_json_escaped(out, name);
  if (dur >= 0) {
    std::snprintf(buf, sizeof(buf), ", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(start) / 1000.0, static_cast<double>(dur) / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), ", \"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f",
                  static_cast<double>(start) / 1000.0);
  }
  out += buf;
  std::snprintf(buf, sizeof(buf), ", \"pid\": %u, \"tid\": %llu, \"args\": {\"instance\": %llu",
                pid, static_cast<unsigned long long>(tid),
                static_cast<unsigned long long>(instance));
  out += buf;
  if (arg_name != nullptr) {
    out += ", ";
    append_json_escaped(out, arg_name);
    std::snprintf(buf, sizeof(buf), ": %llu", static_cast<unsigned long long>(arg));
    out += buf;
  }
  out += "}}";
}

}  // namespace

void Tracer::append_chrome_events(std::string& out, u32 pid) const {
  // One track (tid) per traced instance, in order of first appearance, so a
  // round's spans nest by time containment on their own track.
  std::vector<u64> instances;
  std::unordered_map<u64, u64> tids;
  for (const auto& e : events_) {
    if (tids.emplace(e.instance, instances.size() + 1).second) instances.push_back(e.instance);
  }
  auto tid_of = [&](u64 instance) -> u64 { return tids.at(instance); };

  // Sort for stable nesting: by track, then start time, longest span first.
  // The rest of the key (name, argument) makes the order total, so the
  // file depends on the simulated run alone, not on the order the hooks
  // ran in: events tied on all of it print identical lines.
  auto text = [](const char* s) { return std::string_view(s == nullptr ? "" : s); };
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const auto& e : events_) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(), [&](const Event* a, const Event* b) {
    const u64 ta = tid_of(a->instance), tb = tid_of(b->instance);
    if (ta != tb) return ta < tb;
    if (a->start != b->start) return a->start < b->start;
    if (a->dur != b->dur) return a->dur > b->dur;
    if (const int c = text(a->name).compare(text(b->name)); c != 0) return c < 0;
    if (const int c = text(a->arg_name).compare(text(b->arg_name)); c != 0) return c < 0;
    return a->arg < b->arg;
  });

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %u, "
                "\"args\": {\"name\": \"p4ce consensus run %u\"}}",
                pid, pid - 1);
  out += buf;
  for (u64 instance : instances) {
    // Domain 0 keeps the historical "instance N" track names; other domains
    // are called out explicitly so multigroup traces stay readable.
    const u32 domain = trace_domain(instance);
    if (domain == 0) {
      std::snprintf(buf, sizeof(buf),
                    ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %u, \"tid\": %llu, "
                    "\"args\": {\"name\": \"instance %llu\"}}",
                    pid, static_cast<unsigned long long>(tid_of(instance)),
                    static_cast<unsigned long long>(trace_op(instance)));
    } else {
      std::snprintf(buf, sizeof(buf),
                    ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %u, \"tid\": %llu, "
                    "\"args\": {\"name\": \"domain %u instance %llu\"}}",
                    pid, static_cast<unsigned long long>(tid_of(instance)), domain,
                    static_cast<unsigned long long>(trace_op(instance)));
    }
    out += buf;
  }
  for (const Event* e : ordered) {
    out += ",\n";
    append_event_json(out, pid, tid_of(e->instance), e->name, e->start, e->dur, e->instance,
                      e->arg_name, e->arg);
  }
}

std::string Tracer::to_chrome_json(const std::vector<const Tracer*>& runs) {
  std::string out = "{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) out += ",\n";
    runs[i]->append_chrome_events(out, static_cast<u32>(i) + 1);
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace p4ce::obs
