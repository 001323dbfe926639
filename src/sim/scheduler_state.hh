/**
 * @file
 * Flat containers behind the simulated core's scheduler (machine.hh):
 * the FIFO of in-flight µop completions and the branch predictor's
 * table of 2-bit counters. Both executors touch them for every µop or
 * branch, so they are a vector with a head index and an open-addressing
 * table rather than a std::deque and a std::unordered_map.
 */

#ifndef NB_SIM_SCHEDULER_STATE_HH
#define NB_SIM_SCHEDULER_STATE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace nb::sim
{

/**
 * FIFO of completion cycles with std::deque's push_back/front/pop_front
 * semantics. Popped entries stay in the buffer until they are at least
 * half of the used part, then one copy moves the live entries to the
 * front (amortized O(1) per pop). Growth is out of line, so a push is a
 * compare and a store.
 */
class CompletionFifo
{
  public:
    std::size_t size() const { return tail_ - head_; }
    Cycles front() const { return buf_[head_]; }

    NB_ALWAYS_INLINE void
    push_back(Cycles c)
    {
        if (tail_ == capacity_)
            grow();
        buf_[tail_++] = c;
    }

    NB_ALWAYS_INLINE void
    pop_front()
    {
        if (++head_ >= kCompactMin && 2 * head_ >= tail_) {
            std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                      buf_.begin() + static_cast<std::ptrdiff_t>(tail_),
                      buf_.begin());
            tail_ -= head_;
            head_ = 0;
        }
    }

    /** Popped entries still held in the buffer (0 after compaction). */
    std::size_t consumed() const { return head_; }

    /** Popped entries below this count are never compacted away. */
    static constexpr std::size_t kCompactMin = 64;

  private:
    NB_NOINLINE void
    grow()
    {
        buf_.resize(buf_.empty() ? 2 * kCompactMin : 2 * buf_.size());
        capacity_ = buf_.size();
    }

    std::vector<Cycles> buf_; ///< entries [head_, tail_) are in flight
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t capacity_ = 0; ///< buf_.size(), kept for push_back
};

/**
 * Branch predictor state: one 2-bit saturating counter per virtual
 * code index, created at 1 (weakly not taken) on first use. Linear
 * probing over a power-of-two slot array kept at most half full.
 */
class BranchTable
{
  public:
    /** The counter of the branch at virtual index @p key (a virtual
     *  index is below the program size, so never kEmpty). */
    std::uint8_t &
    counter(std::uint64_t key)
    {
        if (!slots_.empty()) {
            Slot &s = probe(key);
            if (s.key == key)
                return s.counter;
            if (2 * (size_ + 1) <= slots_.size())
                return insert(s, key);
        }
        grow();
        return insert(probe(key), key);
    }

    /** Forget every branch. Small tables keep their slots; a large
     *  one is released, so one branch-heavy run does not tax every
     *  later reset. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        if (slots_.size() > kKeepSlots)
            slots_ = {};
        else
            slots_.assign(slots_.size(), Slot{});
        size_ = 0;
    }

    std::size_t size() const { return size_; }

  private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static constexpr std::size_t kInitialSlots = 64;
    static constexpr std::size_t kKeepSlots = 1024;

    struct Slot
    {
        std::uint64_t key = kEmpty;
        std::uint8_t counter = 0;
    };

    /** The slot holding @p key, or the empty slot it would go in. */
    Slot &
    probe(std::uint64_t key)
    {
        const std::size_t mask = slots_.size() - 1;
        // Fibonacci hashing spreads the strided keys of unrolled
        // copies over the whole table.
        std::size_t i = static_cast<std::size_t>(
                            (key * 0x9E3779B97F4A7C15ULL) >> 32) &
                        mask;
        while (slots_[i].key != key && slots_[i].key != kEmpty)
            i = (i + 1) & mask;
        return slots_[i];
    }

    std::uint8_t &
    insert(Slot &s, std::uint64_t key)
    {
        s.key = key;
        s.counter = 1;
        ++size_;
        return s.counter;
    }

    NB_NOINLINE void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(),
                      Slot{});
        for (const Slot &s : old) {
            if (s.key != kEmpty)
                probe(s.key) = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace nb::sim

#endif // NB_SIM_SCHEDULER_STATE_HH
