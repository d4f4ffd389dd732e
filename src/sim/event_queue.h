// Three-tier event queue over a slab of actions: a calendar (bucket) wheel
// for near-future events, a coarse ring for timers up to ~4.3 s out, and a
// far min-heap beyond that.
//
// Most scheduled events land within a few hundred microseconds of `now`
// (link latencies, service times, batch timers); a single binary heap pays
// O(log n) comparisons and cache misses per operation over the whole
// pending set. The wheel buckets events by time tick (tick = time >>
// kGranularityBits) into a power-of-two ring covering ticks [cursor,
// cursor + kNumBuckets), ~67 ms. Command timeouts (>= 500 ms) and other
// long timers go to the coarse ring: kCoarseSlots unsorted slots, each
// holding one span of kNumBuckets ticks (span = tick >> kSpanBits), which
// cascade into the wheel when the cursor enters their span. This is the
// hierarchical timing wheel of Varghese & Lauck (SOSP '87). Only events
// more than kCoarseSlots spans out go to the far heap, which refills the
// ring as the cursor advances.
//
// The tiers order 32-byte trivially copyable records {key, slot}; the
// action itself sits in a slab slot from push to pop, so an EventFn is
// moved exactly twice: into the slab and out of it.
//
// Each wheel bucket is kept as a small binary heap on the packed
// (time, seq) key, so the pop order is the exact (time, seq) total order a
// single heap produces — same-seed runs stay bit-deterministic
// (cross-checked against a reference heap in
// tests/test_simulator_queue.cpp). Same-tick pushes during a bucket's own
// drain (events scheduled for `now()` from inside a running event) are
// ordinary heap pushes into the current bucket.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/event_fn.h"

namespace dynastar::sim {

// (time, seq) packed into one 128-bit key: lexicographic order becomes a
// single branchless compare in the heap sifts. Time is a non-negative
// int64, so the packing preserves order exactly.
using EventKey = unsigned __int128;

inline EventKey make_event_key(SimTime time, std::uint64_t seq) {
  return (static_cast<EventKey>(static_cast<std::uint64_t>(time)) << 64) |
         seq;
}
inline SimTime event_key_time(EventKey key) {
  return static_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
}

/// A popped event: its key and the action, moved out of the slab.
struct Event {
  EventKey key;
  EventFn action;

  [[nodiscard]] SimTime time() const { return event_key_time(key); }
  [[nodiscard]] std::uint64_t seq() const {
    return static_cast<std::uint64_t>(key);
  }
};

class EventQueue {
 public:
  // Bucket granularity: 2^14 ns ≈ 16.4 us per tick. With 4096 buckets the
  // wheel horizon is ~67 ms of simulated time — comfortably past the
  // default link latency (100 us) and batch/heartbeat timers (<= 50 ms),
  // so in steady state nearly every short-lived event lands in the wheel.
  static constexpr int kGranularityBits = 14;
  static constexpr std::size_t kNumBuckets = 4096;  // power of two
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
  // One coarse slot spans one wheel width; 64 slots reach ~4.3 s.
  static constexpr int kSpanBits = std::countr_zero(kNumBuckets);
  static constexpr std::size_t kCoarseSlots = 64;  // one occupancy word
  static constexpr std::uint64_t kCoarseMask = kCoarseSlots - 1;

  EventQueue() : buckets_(kNumBuckets), occupied_(kNumBuckets / 64, 0) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slab slots allocated so far: the peak number of pending events.
  [[nodiscard]] std::size_t slab_slots() const { return actions_.size(); }

  void push(SimTime time, std::uint64_t seq, EventFn&& action) {
    assert(time >= 0);
    // The caller (Simulator) clamps times to now, so tick >= cursor_tick_.
    place(Record{make_event_key(time, seq), store(std::move(action))});
    ++size_;
  }

  /// Time of the next event in (time, seq) order. Requires !empty().
  /// A pure peek: the cursor stays put, so a caller that stops short of
  /// this time can still push at any time >= the last popped event's.
  [[nodiscard]] SimTime next_time() const {
    assert(size_ > 0);
    if (wheel_size_ > 0) {
      const std::uint64_t tick = cursor_tick_ + next_occupied_distance();
      const SimTime wheel_time =
          event_key_time(buckets_[tick & kBucketMask].front().key);
      // Coarse events lie in later spans than the cursor's, so they can
      // come first only when the wheel's next event does too.
      if (coarse_size_ == 0 || span_of(tick) == span_of(cursor_tick_)) {
        return wheel_time;
      }
      const std::uint64_t span = first_coarse_span();
      if (span > span_of(tick)) return wheel_time;
      return std::min(wheel_time, coarse_min_time(span));
    }
    // Far events lie beyond every coarse span.
    if (coarse_size_ > 0) return coarse_min_time(first_coarse_span());
    return event_key_time(far_.front().key);
  }

  /// Pops the next event in (time, seq) order. Requires !empty().
  Event pop() {
    position_cursor();
    auto& bucket = buckets_[cursor_tick_ & kBucketMask];
    std::pop_heap(bucket.begin(), bucket.end(), RecordLater{});
    const Record record = bucket.back();
    bucket.pop_back();
    --wheel_size_;
    --size_;
    if (bucket.empty()) clear_occupied(cursor_tick_ & kBucketMask);
    // Moved out, not run in place: the action may push and grow the slab.
    free_slots_.push_back(record.slot);
    return Event{record.key, std::move(actions_[record.slot])};
  }

  /// Walks every pending record and slab slot and checks the tier and
  /// slab invariants; returns false on the first violation. O(pending +
  /// slab); for tests, never called by the simulator.
  [[nodiscard]] bool check_invariants() const {
    std::vector<bool> used(actions_.size(), false);
    auto claim = [&](const Record& r) {
      if (r.slot >= actions_.size() || used[r.slot] || !actions_[r.slot])
        return false;
      used[r.slot] = true;
      return true;
    };
    const std::uint64_t cursor_span = span_of(cursor_tick_);
    std::size_t wheel = 0;
    for (std::uint64_t i = 0; i < kNumBuckets; ++i) {
      const auto& bucket = buckets_[i];
      const bool bit = (occupied_[i >> 6] >> (i & 63)) & 1;
      if (bit == bucket.empty()) return false;
      if (!std::is_heap(bucket.begin(), bucket.end(), RecordLater{}))
        return false;
      for (const Record& r : bucket) {
        const std::uint64_t tick = tick_of(r.key);
        if (tick < cursor_tick_ || tick - cursor_tick_ >= kNumBuckets ||
            (tick & kBucketMask) != i || !claim(r))
          return false;
      }
      wheel += bucket.size();
    }
    std::size_t coarse = 0;
    for (std::uint64_t i = 0; i < kCoarseSlots; ++i) {
      const auto& slot = coarse_[i];
      if (((coarse_occupied_ >> i) & 1) == slot.empty()) return false;
      for (const Record& r : slot) {
        const std::uint64_t span = span_of(tick_of(r.key));
        if (span <= cursor_span || span - cursor_span > kCoarseSlots ||
            (span & kCoarseMask) != i || !claim(r))
          return false;
      }
      coarse += slot.size();
    }
    if (!std::is_heap(far_.begin(), far_.end(), RecordLater{})) return false;
    for (const Record& r : far_) {
      if (span_of(tick_of(r.key)) <= cursor_span + kCoarseSlots || !claim(r))
        return false;
    }
    for (std::uint32_t slot : free_slots_) {
      if (slot >= actions_.size() || used[slot] || actions_[slot])
        return false;
      used[slot] = true;
    }
    return wheel == wheel_size_ && coarse == coarse_size_ &&
           wheel + coarse + far_.size() == size_ &&
           size_ + free_slots_.size() == actions_.size();
  }

 private:
  struct Record {
    EventKey key;
    std::uint32_t slot;  // index into actions_
  };
  static_assert(sizeof(Record) == 32);

  // std::push_heap is a max-heap; "later" records compare smaller.
  struct RecordLater {
    bool operator()(const Record& a, const Record& b) const {
      return a.key > b.key;
    }
  };

  static std::uint64_t tick_of(EventKey key) {
    return static_cast<std::uint64_t>(event_key_time(key)) >>
           kGranularityBits;
  }
  static std::uint64_t span_of(std::uint64_t tick) { return tick >> kSpanBits; }

  std::uint32_t store(EventFn&& action) {
    if (free_slots_.empty()) {
      actions_.push_back(std::move(action));
      return static_cast<std::uint32_t>(actions_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
    return slot;
  }

  /// Files a record in the tier its tick belongs to, given the cursor.
  /// Requires tick >= cursor_tick_.
  void place(const Record& record) {
    const std::uint64_t tick = tick_of(record.key);
    assert(tick >= cursor_tick_);
    if (tick - cursor_tick_ < kNumBuckets) {
      auto& bucket = buckets_[tick & kBucketMask];
      if (bucket.empty()) set_occupied(tick & kBucketMask);
      bucket.push_back(record);
      std::push_heap(bucket.begin(), bucket.end(), RecordLater{});
      ++wheel_size_;
      return;
    }
    const std::uint64_t span = span_of(tick);
    if (span - span_of(cursor_tick_) <= kCoarseSlots) {
      coarse_[span & kCoarseMask].push_back(record);
      coarse_occupied_ |= std::uint64_t{1} << (span & kCoarseMask);
      ++coarse_size_;
      return;
    }
    far_.push_back(record);
    std::push_heap(far_.begin(), far_.end(), RecordLater{});
  }

  void set_occupied(std::uint64_t index) {
    occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
  }
  void clear_occupied(std::uint64_t index) {
    occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  }

  /// Moves cursor_tick_ forward to the bucket holding the globally next
  /// event. Requires !empty().
  void position_cursor() {
    assert(size_ > 0);
    for (;;) {
      std::uint64_t target = UINT64_MAX;
      if (wheel_size_ > 0) {
        target = cursor_tick_ + next_occupied_distance();
        if (span_of(target) == span_of(cursor_tick_)) {
          cursor_tick_ = target;
          return;
        }
      }
      // The next wheel event (if any) lies in a later span: an earlier
      // coarse span, or with both wheel and ring empty the far heap, may
      // come first. Advance to whichever is earliest and re-scan.
      if (coarse_size_ > 0) {
        target = std::min(target, first_coarse_span() << kSpanBits);
      } else if (wheel_size_ == 0) {
        target = tick_of(far_.front().key);
      }
      advance(target);
    }
  }

  /// Sets the cursor to `tick`, which no pending event precedes and which
  /// lies at or before the first coarse span. Cascades the coarse slot of
  /// the span the cursor entered into the wheel, then refills the ring from
  /// the far heap up to the new reach.
  void advance(std::uint64_t tick) {
    assert(coarse_size_ == 0 || tick <= first_coarse_span() << kSpanBits);
    const std::uint64_t old_span = span_of(cursor_tick_);
    cursor_tick_ = tick;
    const std::uint64_t new_span = span_of(tick);
    if (new_span == old_span) return;
    // Spans the cursor skipped hold no coarse events, so only the slot of
    // new_span can; it lands whole in the wheel.
    const std::uint64_t index = new_span & kCoarseMask;
    if ((coarse_occupied_ >> index) & 1) {
      auto& slot = coarse_[index];
      coarse_size_ -= slot.size();
      for (const Record& record : slot) place(record);
      slot.clear();
      coarse_occupied_ &= ~(std::uint64_t{1} << index);
    }
    while (!far_.empty() &&
           span_of(tick_of(far_.front().key)) - new_span <= kCoarseSlots) {
      std::pop_heap(far_.begin(), far_.end(), RecordLater{});
      const Record record = far_.back();
      far_.pop_back();
      place(record);
    }
  }

  /// Ring distance from cursor_tick_ to the first occupied bucket.
  /// Requires wheel_size_ > 0 (so some bucket within the ring is occupied).
  [[nodiscard]] std::uint64_t next_occupied_distance() const {
    const std::uint64_t start = cursor_tick_ & kBucketMask;
    std::uint64_t word_index = start >> 6;
    std::uint64_t word = occupied_[word_index] >> (start & 63);
    if (word != 0) {
      return static_cast<std::uint64_t>(std::countr_zero(word));
    }
    std::uint64_t distance = 64 - (start & 63);
    constexpr std::uint64_t kNumWords = kNumBuckets / 64;
    for (std::uint64_t i = 1; i <= kNumWords; ++i) {
      word = occupied_[(word_index + i) & (kNumWords - 1)];
      if (word != 0) {
        return distance + (i - 1) * 64 +
               static_cast<std::uint64_t>(std::countr_zero(word));
      }
    }
    assert(false && "wheel_size_ > 0 but no occupied bucket");
    return 0;
  }

  /// Earliest span with a coarse event. Requires coarse_size_ > 0.
  [[nodiscard]] std::uint64_t first_coarse_span() const {
    const std::uint64_t next = span_of(cursor_tick_) + 1;
    const std::uint64_t rotated =
        std::rotr(coarse_occupied_, static_cast<int>(next & kCoarseMask));
    return next + static_cast<std::uint64_t>(std::countr_zero(rotated));
  }

  /// Earliest time in the (unsorted) coarse slot of `span`.
  [[nodiscard]] SimTime coarse_min_time(std::uint64_t span) const {
    const auto& slot = coarse_[span & kCoarseMask];
    EventKey least = slot.front().key;
    for (const Record& record : slot) least = std::min(least, record.key);
    return event_key_time(least);
  }

  std::vector<std::vector<Record>> buckets_;
  std::vector<std::uint64_t> occupied_;  // one bit per bucket
  std::array<std::vector<Record>, kCoarseSlots> coarse_;
  std::uint64_t coarse_occupied_ = 0;  // one bit per coarse slot
  std::vector<Record> far_;            // binary min-heap on (time, seq)
  std::vector<EventFn> actions_;       // the slab; empty slots are free
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t cursor_tick_ = 0;
  std::size_t wheel_size_ = 0;
  std::size_t coarse_size_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dynastar::sim
