// Event-driven engine primitives (ISSUE 6 tentpole).
//
// EventQueue is a global queue keyed by simulation cycle with a
// deterministic total order: events pop in nondecreasing cycle order and,
// within a cycle, in ascending payload-id order — so replaying the same
// pushes always fires events in the same order regardless of push order.
// The simulator uses it for message-arrival events (payload = host id).
//
// ActiveSet is a fixed-size bitmap of "things that may do work this cycle"
// (dirty switches, busy channels, injecting hosts...). Sweep() visits active
// indices in ascending order, exactly as an ascending loop over every index
// would reach them: indices activated ahead of the cursor are picked up in
// the same sweep (a later loop iteration sees state an earlier one wrote);
// activations at or behind the cursor persist to the next sweep.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace commsched::sim {

class EventQueue {
 public:
  void Clear() { heap_.clear(); }

  [[nodiscard]] bool Empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t Size() const { return heap_.size(); }

  void Push(std::size_t cycle, std::size_t id) {
    heap_.push_back(Entry{cycle, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Cycle of the earliest pending event. Requires !Empty().
  [[nodiscard]] std::size_t NextCycle() const {
    CS_CHECK(!heap_.empty(), "NextCycle on an empty event queue");
    return heap_.front().cycle;
  }

  /// Pops the earliest (cycle, id) event and returns its id.
  std::size_t Pop() {
    CS_CHECK(!heap_.empty(), "Pop on an empty event queue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const std::size_t id = heap_.back().id;
    heap_.pop_back();
    return id;
  }

 private:
  struct Entry {
    std::size_t cycle;
    std::size_t id;
  };
  // Min-heap on (cycle, id): strict total order makes pops deterministic.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.cycle != b.cycle ? a.cycle > b.cycle : a.id > b.id;
    }
  };
  std::vector<Entry> heap_;
};

class ActiveSet {
 public:
  void Reset(std::size_t n) {
    n_ = n;
    words_.assign((n + 63) / 64, 0);
    count_ = 0;
  }

  void Add(std::size_t i) {
    CS_DCHECK(i < n_, "ActiveSet index out of range");
    std::uint64_t& word = words_[i >> 6];
    const std::uint64_t mask = 1ULL << (i & 63);
    if ((word & mask) == 0) {
      word |= mask;
      ++count_;
    }
  }

  [[nodiscard]] bool Contains(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  [[nodiscard]] bool Any() const { return count_ > 0; }
  [[nodiscard]] std::size_t Count() const { return count_; }

  void ClearAll() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// Visits active indices in ascending order; `visit(i)` returns true to
  /// keep i active for the next sweep, false to deactivate it. Indices the
  /// callback activates ahead of the cursor are visited in this sweep;
  /// indices it activates at or behind the cursor wait for the next sweep.
  template <typename Visit>
  void Sweep(Visit&& visit) {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t done = 0;
      while (true) {
        // Re-read the word each round: visit() may set bits ahead of us.
        // Bits at or below the cursor stay masked out until the next sweep.
        const std::uint64_t pending = words_[wi] & ~done;
        if (pending == 0) break;
        const int bit = std::countr_zero(pending);
        const std::uint64_t mask = 1ULL << bit;
        done |= mask | (mask - 1);
        const std::size_t i = (wi << 6) + static_cast<std::size_t>(bit);
        if (!visit(i) && (words_[wi] & mask) != 0) {
          words_[wi] &= ~mask;
          --count_;
        }
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t n_ = 0;
  std::size_t count_ = 0;
};

}  // namespace commsched::sim
