// The engine's typed event calendar.
//
// A (time, seq)-ordered heap of (kind, zone) entries with one dispatch
// path: step() hands each due entry to the EventSink given at
// construction, which owns the fixed handler per kind (and any observer
// fan-out). cancel() takes the handle by reference and zeroes it — the
// engine's universal "cancel and forget" idiom.
//
// Determinism contract (the tie-break the whole engine is built on):
// events at equal timestamps fire in scheduling order, strictly FIFO —
// never reordered by kind or zone. The engine derives its coincident-event
// discipline from *when* it schedules: a billing-cycle boundary is armed a
// full hour ahead while the price tick that could coincide with it is
// armed only one price step ahead, so the boundary always observes the
// pre-tick price; the deadline trigger is armed at every commit, so its
// order against a coincident tick reflects which was scheduled first.
// (A kind-priority tie-break would *break* byte-identity with the
// historical engine precisely because that relative order is
// history-dependent.) event_core_test pins this contract.
//
// Cancellation is lazy: cancelled entries stay in the heap and are skipped
// when popped, keeping schedule() and cancel() O(log n) amortized. So that
// cancel-heavy runs (the deadline trigger and per-zone events are
// rescheduled constantly) cannot grow the heap without bound, the calendar
// compacts — rebuilds the heap from the live entries — once cancelled
// entries outnumber live ones past a small floor. Each compaction is
// O(live) and removes at least half the backlog, so the amortized cost per
// cancel stays O(1) and the heap never holds more than about twice the
// live events (plus the floor).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "core/events/event.hpp"

namespace redspot {

/// Receiver of every dispatched calendar entry: the handler for each
/// EventKind is a fixed member of the sink, so an entry needs nothing
/// beyond its (kind, zone) — no per-event closure.
class EventSink {
 public:
  virtual void on_queue_event(const Event& event) = 0;

 protected:
  ~EventSink() = default;
};

class EventQueue {
 public:
  /// `sink` receives every dispatch and must outlive the queue's use.
  EventQueue(SimTime start, EventSink& sink) : now_(start), sink_(&sink) {}

  SimTime now() const { return now_; }

  /// Schedules a (kind, zone) entry at absolute time `t` (>= now()).
  /// Returns a handle.
  EventId schedule_at(EventKind kind, std::size_t zone, SimTime t);

  /// Schedules a (kind, zone) entry after `d` (>= 0) of simulated time.
  EventId schedule_in(EventKind kind, std::size_t zone, Duration d) {
    return schedule_at(kind, zone, now_ + d);
  }

  /// Cancels a pending event and zeroes the handle; no-op when the handle
  /// is 0 or the event already ran.
  void cancel(EventId& id);

  /// True when `id` is still pending.
  bool pending(EventId id) const;

  /// Dispatches the next event: advances the clock and hands the entry to
  /// the sink. Returns false when the calendar is empty.
  bool step();

  /// Timestamp of the next event step() would dispatch, or kNever when the
  /// calendar is empty. Drains cancelled heap tops as a side effect (the
  /// same entries step() would skip), so repeated peeks stay O(1) amortized.
  /// This is the batched lockstep driver's scheduling key — called once per
  /// dispatched event, hence inline.
  SimTime next_time() {
    while (!heap_.empty() && find(heap_.front().id) == nullptr) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.pop_back();
    }
    return heap_.empty() ? kNever : heap_.front().time;
  }

  /// Pending (non-cancelled) event count.
  std::size_t pending_count() const { return live_; }

  /// Heap entries, including cancelled ones awaiting lazy removal.
  /// Bounded by max(2 * pending_count(), compaction floor).
  std::size_t backlog() const { return heap_.size(); }

  /// Total events dispatched so far.
  std::uint64_t executed_count() const { return executed_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO within a timestamp
    EventId id;
    // Heap ordering wants earliest-first with FIFO ties, so "less" means
    // later (std::*_heap build max-heaps).
    bool operator<(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  /// Pooled event record. Handles encode (generation << 32 | slot index);
  /// a freed slot bumps its generation on reuse, so a stale handle — a
  /// cancelled or already-run event still sitting in the heap — simply
  /// fails the generation check. The pool grows to the peak concurrent
  /// event count and then schedules allocation-free, which matters: the
  /// calendar is the per-event floor under every simulation, batched
  /// sweeps included.
  struct Slot {
    EventKind kind = EventKind::kPriceTick;
    std::size_t zone = 0;
    std::uint32_t gen = 0;  ///< starts at 1 on first use; 0 never matches
    bool live = false;
  };

  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static constexpr std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// The slot behind a handle, or nullptr when the event is no longer
  /// pending (ran, cancelled, or the slot was reused).
  Slot* find(EventId id) {
    if (id == 0) return nullptr;
    const std::size_t slot = slot_of(id);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    if (!s.live || s.gen != gen_of(id)) return nullptr;
    return &s;
  }
  const Slot* find(EventId id) const {
    return const_cast<EventQueue*>(this)->find(id);
  }

  /// Returns a live slot to the free list.
  void release(EventId id, Slot& slot);

  /// Drops cancelled heap entries when they dominate the backlog.
  void maybe_compact();

  SimTime now_;
  EventSink* sink_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace redspot
