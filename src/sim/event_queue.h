// Two-tier event queue: a calendar (bucket) wheel for near-future events
// plus a spill min-heap for far-future ones.
//
// Most scheduled events land within a few hundred microseconds of `now`
// (link latencies, service times, batch timers); a single binary heap pays
// O(log n) comparisons and cache misses per operation over the whole
// pending set. The wheel buckets events by time tick (tick = time >>
// kGranularityBits) into a power-of-two ring; only events beyond the wheel
// horizon go to the spill heap and migrate in as the cursor advances.
//
// Each bucket is kept as a small binary heap on (time, seq), so the pop
// order is the exact (time, seq) total order the old single heap produced —
// same-seed runs stay bit-deterministic (cross-checked against a reference
// heap in tests/test_simulator_queue.cpp). Same-tick pushes during a
// bucket's own drain (events scheduled for `now()` from inside a running
// event) are ordinary heap pushes into the current bucket.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "sim/event_fn.h"

namespace dynastar::sim {

struct Event {
  // (time, seq) packed into one 128-bit key: lexicographic order becomes a
  // single branchless compare in the heap sifts. Time is a non-negative
  // int64, so the packing preserves order exactly.
  unsigned __int128 key;
  EventFn action;

  static unsigned __int128 make_key(SimTime time, std::uint64_t seq) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(time))
            << 64) |
           seq;
  }
  [[nodiscard]] SimTime time() const {
    return static_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
  }
  [[nodiscard]] std::uint64_t seq() const {
    return static_cast<std::uint64_t>(key);
  }
};

// std::push_heap is a max-heap; "later" events compare smaller.
struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    return a.key > b.key;
  }
};

class EventQueue {
 public:
  // Bucket granularity: 2^14 ns ≈ 16.4 us per tick. With 4096 buckets the
  // wheel horizon is ~67 ms of simulated time — comfortably past the
  // default link latency (100 us) and batch/heartbeat timers (<= 50 ms),
  // so in steady state nearly every push lands in the wheel.
  static constexpr int kGranularityBits = 14;
  static constexpr std::size_t kNumBuckets = 4096;  // power of two
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;

  EventQueue() : buckets_(kNumBuckets), occupied_(kNumBuckets / 64, 0) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(SimTime time, std::uint64_t seq, EventFn action) {
    assert(time >= 0);
    const std::uint64_t tick = tick_of(time);
    // The caller (Simulator) clamps times to now, so tick >= cursor_tick_.
    assert(tick >= cursor_tick_);
    Event event{Event::make_key(time, seq), std::move(action)};
    if (tick >= cursor_tick_ + kNumBuckets) {
      spill_.push_back(std::move(event));
      std::push_heap(spill_.begin(), spill_.end(), EventLater{});
    } else {
      bucket_push(tick, std::move(event));
    }
    ++size_;
  }

  /// Time of the next event in (time, seq) order. Requires !empty().
  /// A pure peek: the cursor stays put, so a caller that stops short of
  /// this time can still push at any time >= the last popped event's.
  [[nodiscard]] SimTime next_time() const {
    assert(size_ > 0);
    // Spill events lie at or beyond the wheel horizon, so a non-empty
    // wheel holds the next event.
    if (wheel_size_ == 0) return spill_.front().time();
    const std::uint64_t tick = cursor_tick_ + next_occupied_distance();
    return buckets_[tick & kBucketMask].front().time();
  }

  /// Pops the next event in (time, seq) order. Requires !empty().
  Event pop() {
    position_cursor();
    auto& bucket = buckets_[cursor_tick_ & kBucketMask];
    std::pop_heap(bucket.begin(), bucket.end(), EventLater{});
    Event event = std::move(bucket.back());
    bucket.pop_back();
    --wheel_size_;
    --size_;
    if (bucket.empty()) clear_occupied(cursor_tick_ & kBucketMask);
    return event;
  }

 private:
  static std::uint64_t tick_of(SimTime time) {
    return static_cast<std::uint64_t>(time) >> kGranularityBits;
  }

  void bucket_push(std::uint64_t tick, Event event) {
    auto& bucket = buckets_[tick & kBucketMask];
    if (bucket.empty()) set_occupied(tick & kBucketMask);
    bucket.push_back(std::move(event));
    std::push_heap(bucket.begin(), bucket.end(), EventLater{});
    ++wheel_size_;
  }

  void set_occupied(std::uint64_t index) {
    occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
  }
  void clear_occupied(std::uint64_t index) {
    occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  }

  /// Moves cursor_tick_ forward to the bucket holding the globally next
  /// event, migrating spill events that the advancing horizon uncovers.
  /// Requires !empty().
  void position_cursor() {
    assert(size_ > 0);
    for (;;) {
      if (wheel_size_ == 0) {
        // Wheel drained: jump straight to the earliest spill tick. Spill
        // events always lie at or beyond the old horizon, so this only
        // moves the cursor forward.
        assert(!spill_.empty());
        cursor_tick_ = tick_of(spill_.front().time());
        migrate_spill();
        continue;  // wheel is now non-empty
      }
      const std::uint64_t distance = next_occupied_distance();
      if (distance == 0) return;
      cursor_tick_ += distance;
      // The horizon moved; spill events may now fit in the wheel. Any
      // migrated event has tick >= old cursor + kNumBuckets > new cursor,
      // so the bucket at the new cursor position is unaffected unless the
      // wheel span was empty past it — in which case the loop re-scans.
      migrate_spill();
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

  void migrate_spill() {
    while (!spill_.empty() &&
           tick_of(spill_.front().time()) < cursor_tick_ + kNumBuckets) {
      std::pop_heap(spill_.begin(), spill_.end(), EventLater{});
      Event event = std::move(spill_.back());
      spill_.pop_back();
      bucket_push(tick_of(event.time()), std::move(event));
    }
  }

  std::vector<std::vector<Event>> buckets_;
  std::vector<std::uint64_t> occupied_;  // one bit per bucket
  std::vector<Event> spill_;             // binary min-heap on (time, seq)
  std::uint64_t cursor_tick_ = 0;
  std::size_t wheel_size_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dynastar::sim
