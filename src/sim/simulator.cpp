#include "sim/simulator.hpp"

#include <cassert>

#include "obs/context.hpp"

namespace p4ce::sim {

Simulator::Simulator()
    : obs_(std::make_shared<obs::Context>()),
      events_alloc_(obs_->metrics.counter("sim.events_alloc")) {
  obs_->sampler.set_clock(this);
}

// The context may outlive this simulator (a bench exports it afterwards):
// from here on its sampler is a standalone one.
Simulator::~Simulator() { obs_->sampler.set_clock(nullptr); }

// --- Scheduling --------------------------------------------------------------

EventHandle Simulator::schedule_impl(SimTime when, detail::SmallFn fn) {
  assert(when >= now_ && "cannot schedule into the past");
  u32 index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ == slab_.size() * kSlabChunkSlots) {
      slab_.push_back(std::make_unique<EventSlot[]>(kSlabChunkSlots));
    }
    index = slot_count_++;
  }
  EventSlot& slot = slot_at(index);
  slot.fn = std::move(fn);
  slot.armed = true;
  const u64 gen = ++slot.gen;
  queue_.push(QueueEntry{when, next_seq_++, index, gen});
  return EventHandle(this, index, gen);
}

// --- Cancellation ------------------------------------------------------------

void Simulator::cancel_event(u32 slot_index, u64 gen) noexcept {
  if (slot_index >= slot_count_) return;
  EventSlot& slot = slot_at(slot_index);
  if (slot.gen != gen || !slot.armed) return;
  // The stale queue entry stays behind; its generation no longer matches,
  // so step() skips it. Free the captures now (they may pin packets).
  slot.armed = false;
  slot.fn.reset();
  free_slots_.push_back(slot_index);
}

bool Simulator::event_pending(u32 slot_index, u64 gen) const noexcept {
  if (slot_index >= slot_count_) return false;
  const EventSlot& slot = slot_at(slot_index);
  return slot.gen == gen && slot.armed;
}

// --- Event execution ---------------------------------------------------------

bool Simulator::step() {
  if (queue_.empty()) return false;
  const QueueEntry entry = queue_.top();
  queue_.pop();
  now_ = entry.when;
  EventSlot& slot = slot_at(entry.slot);
  if (slot.gen == entry.gen && slot.armed) {
    // Move the callable out and recycle the slot *before* invoking: the
    // event may schedule new work (possibly growing the slab) or cancel
    // other events.
    detail::SmallFn fn = std::move(slot.fn);
    slot.armed = false;
    free_slots_.push_back(entry.slot);
    ++executed_;
    fn();
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.top().when <= deadline) step();
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace p4ce::sim
