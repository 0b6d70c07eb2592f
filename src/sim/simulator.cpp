#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/context.hpp"

namespace p4ce::sim {

Simulator::Simulator()
    : obs_(std::make_shared<obs::Context>()),
      events_alloc_(obs_->metrics.counter("sim.events_alloc")),
      events_(obs_->metrics.counter("sim.events")) {
  obs_->sampler.set_clock(this);
}

// The context may outlive this simulator (a bench exports it afterwards):
// from here on its sampler is a standalone one.
Simulator::~Simulator() { obs_->sampler.set_clock(nullptr); }

// --- Scheduling --------------------------------------------------------------

u32 Simulator::new_slot() {
  if (slot_count_ == slab_.size() * kSlabChunkSlots) {
    slab_.push_back(std::make_unique<EventSlot[]>(kSlabChunkSlots));
  }
  return slot_count_++;
}

void Simulator::push_far(const QueueEntry& entry, u64 block) {
  // block > last_block_: nothing is scheduled before now().
  const u32 bucket = 63 - static_cast<u32>(std::countl_zero(block ^ last_block_));
  far_[bucket].push_back(entry);
  far_mask_ |= u64{1} << bucket;
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

bool Simulator::refill(SimTime deadline) {
  near_.clear();
  near_head_ = 0;
  if (far_mask_ == 0) return false;
  const u32 bucket = static_cast<u32>(std::countr_zero(far_mask_));
  std::vector<QueueEntry>& entries = far_[bucket];
  SimTime earliest = entries.front().when;
  for (const QueueEntry& e : entries) earliest = std::min(earliest, e.when);
  // Leave last_block_ alone unless the earliest entry is popped right away:
  // run_until may stop now() below it, and later events scheduled in that
  // gap must still land at or after last_block_.
  if (earliest > deadline) return false;
  last_block_ = static_cast<u64>(earliest) >> kBlockShift;
  far_mask_ &= ~(u64{1} << bucket);
  for (const QueueEntry& e : entries) {
    const u64 block = static_cast<u64>(e.when) >> kBlockShift;
    if (block == last_block_) {
      near_.push_back(e);
    } else {
      push_far(e, block);  // a lower bucket than this one
    }
  }
  entries.clear();
  // A burst of far events spreads over several buckets on its way down;
  // keep only small buckets' storage, so the burst is not held once per
  // bucket it passed through.
  if (entries.capacity() > kKeptBucketEntries) std::vector<QueueEntry>().swap(entries);
  std::sort(near_.begin(), near_.end(), earlier);
  return true;
}

bool Simulator::step(SimTime deadline) {
  if (near_head_ == near_.size() && spill_.empty() && !refill(deadline)) return false;
  const bool from_spill = !spill_.empty() && (near_head_ == near_.size() ||
                                              earlier(spill_.front(), near_[near_head_]));
  const QueueEntry entry = from_spill ? spill_.front() : near_[near_head_];
  if (entry.when > deadline) return false;
  if (from_spill) {
    std::pop_heap(spill_.begin(), spill_.end(), Later{});
    spill_.pop_back();
  } else {
    ++near_head_;
  }
  now_ = entry.when;
  EventSlot& slot = slot_at(entry.slot);
  if (slot.gen == entry.gen && slot.armed) {
    // Run the callable where it sits: slab chunks never move, so the slot
    // stays valid even if the event grows the slab, and it is not recycled
    // until the callable returns. Disarmed first, so the event cannot
    // cancel itself.
    slot.armed = false;
    events_.inc();
    running_ = TieKey{entry.when - entry.lead, entry.seq};
    slot.fn();
    slot.fn.reset();
    free_slots_.push_back(entry.slot);
  } else {
    ++cancelled_pops_;
  }
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step(std::numeric_limits<SimTime>::max())) {
  }
  running_ = kBetweenEvents;
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && step(deadline)) {
  }
  running_ = kBetweenEvents;
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace p4ce::sim
