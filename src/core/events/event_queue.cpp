#include "core/events/event_queue.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace redspot {

namespace {

/// Below this backlog the cancelled fraction is irrelevant; skipping
/// compaction keeps tiny calendars allocation-stable.
constexpr std::size_t kCompactionFloor = 64;

}  // namespace

void EventQueue::release(EventId id, Slot& slot) {
  slot.live = false;
  free_.push_back(slot_of(id));
  --live_;
}

EventId EventQueue::schedule_at(EventKind kind, std::size_t zone, SimTime t) {
  REDSPOT_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t << " now="
                                                              << now_);
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // invalidates every stale handle to this slot
  s.kind = kind;
  s.zone = zone;
  s.live = true;
  ++live_;
  const EventId id = (static_cast<EventId>(s.gen) << 32) | slot;
  heap_.push_back(Entry{t, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end());
  return id;
}

void EventQueue::cancel(EventId& id) {
  if (Slot* s = find(id)) {
    release(id, *s);
    maybe_compact();
  }
  id = 0;
}

void EventQueue::maybe_compact() {
  // Every heap entry was pushed for a then-live slot and dies with it (run
  // or cancel), so live_ counts the live heap entries exactly and the
  // difference is the cancelled ones awaiting lazy removal.
  if (heap_.size() <= kCompactionFloor || heap_.size() - live_ <= live_)
    return;
  std::erase_if(heap_,
                [this](const Entry& e) { return find(e.id) == nullptr; });
  std::make_heap(heap_.begin(), heap_.end());
}

bool EventQueue::pending(EventId id) const { return find(id) != nullptr; }

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    Slot* s = find(top.id);
    if (s == nullptr) continue;  // cancelled
    const Event event{top.time, s->kind, s->zone, top.seq};
    release(top.id, *s);
    REDSPOT_CHECK(top.time >= now_);
    now_ = top.time;
    ++executed_;
    sink_->on_queue_event(event);
    return true;
  }
  return false;
}

}  // namespace redspot
