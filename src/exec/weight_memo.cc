#include "exec/weight_memo.h"

namespace ta {

WeightMemo::Plane
WeightMemo::getOrBuild(const Key &key,
                       const std::function<PackedPlane()> &build,
                       bool *hit)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = planes_.find(key);
        if (hit != nullptr)
            *hit = it != planes_.end();
        if (it != planes_.end()) {
            ++counters_.hits;
            return it->second;
        }
        ++counters_.misses;
    }

    // Synthesize outside the lock so other layers keep going.
    Plane plane = std::make_shared<const PackedPlane>(build());
    const size_t bytes = plane->bytes.size();

    std::lock_guard<std::mutex> lock(mu_);
    // A racing miss may have inserted the key meanwhile; keep that
    // plane (the bytes are identical) instead of holding two.
    const auto it = planes_.find(key);
    if (it != planes_.end())
        return it->second;
    if (bytes > budget_)
        return plane;
    while (counters_.residentBytes + bytes > budget_) {
        const auto old = planes_.find(order_.front());
        counters_.residentBytes -= old->second->bytes.size();
        planes_.erase(old);
        order_.pop_front();
        ++counters_.evictions;
    }
    planes_.emplace(key, plane);
    order_.push_back(key);
    counters_.residentBytes += bytes;
    return plane;
}

bool
WeightMemo::contains(const Key &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return planes_.count(key) != 0;
}

WeightMemo::Counters
WeightMemo::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Counters c = counters_;
    c.planes = planes_.size();
    return c;
}

} // namespace ta
