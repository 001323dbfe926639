/**
 * @file
 * The one bounded, thread-safe memo of the library.
 *
 * Every process-wide cache -- the session-layer assembly memo and the
 * lint and bound report memos -- is a Memo<V>: a map from a canonical
 * string key to an immutable value held by shared_ptr, so a holder
 * keeps its value alive even after the memo drops it. The value is
 * built outside the lock, so a slow build never serializes other
 * threads' lookups; when two threads race to build the same key, the
 * first insert wins and both callers get that one instance. Memory
 * stays bounded by clearing the whole map when it is full, and the
 * clear is counted (CacheStats::evictions), so a full memo explains
 * the miss storm it causes instead of hiding it.
 */

#ifndef NB_CORE_MEMO_HH
#define NB_CORE_MEMO_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "core/telemetry.hh"

namespace nb
{

/** A bounded string-keyed memo of immutable values (see the file
 *  comment). All members are thread-safe. */
template <class V>
class Memo
{
  public:
    using Ptr = std::shared_ptr<const V>;

    explicit Memo(std::size_t capacity = 4096) : capacity_(capacity) {}

    /**
     * The value cached under @p key, built by @p build() on a miss.
     * @p build returns a V or a Ptr and runs without the lock held;
     * its exceptions propagate and nothing is cached. A lookup that
     * finds the key counts a hit; one that has to call @p build counts
     * a miss, so two threads racing on one key both count a miss (both
     * paid a build) and both get the first-inserted value.
     */
    template <class Build>
    Ptr get(const std::string &key, Build &&build)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = map_.find(key);
            if (it != map_.end()) {
                ++stats_.hits;
                return it->second;
            }
            ++stats_.misses;
        }
        Ptr value;
        if constexpr (std::is_convertible_v<decltype(build()), Ptr>)
            value = build();
        else
            value = std::make_shared<const V>(build());
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end())
            return it->second;
        if (map_.size() >= capacity_) {
            stats_.evictions += map_.size();
            map_.clear();
        }
        return map_.emplace(key, std::move(value)).first->second;
    }

    /** Entries currently cached. */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

    /** Counters since construction or resetStats(). */
    CacheStats stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    /** Drop every entry and zero the counters. */
    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        stats_ = {};
    }

    /** Zero the counters; cached entries are kept. */
    void resetStats()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_ = {};
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Ptr> map_;
    CacheStats stats_;
};

} // namespace nb

#endif // NB_CORE_MEMO_HH
