/**
 * @file
 * Bounded memo of synthesized weight planes, keyed by the synthesis
 * inputs (repr rows, repr cols, wbits, seed). A LLaMA suite pass asks
 * for the same representative tensor again and again (54 of its 63
 * layers repeat a tensor an earlier model built); the memo builds each
 * one once per memo and hands every later layer the packed
 * plane through the same WeightView path catalog layers take.
 *
 * Planes are stored bit-packed (PackedPlane), never byte-per-bit, and
 * shared read-only via shared_ptr: an eviction drops the memo's
 * reference only, so a layer still reading the plane keeps it alive.
 * Resident bytes never exceed the budget; when an insertion would
 * pass it, the oldest-inserted planes are evicted first (FIFO). A
 * plane larger than the whole budget is returned but not kept.
 *
 * Thread safety: getOrBuild/contains/counters are safe from any
 * thread, so accelerators may share one memo (the service does). The
 * build runs outside the lock, so concurrent misses on different keys
 * synthesize in parallel; concurrent misses on one key may build
 * twice, and the first insertion wins.
 *
 * Determinism: a plane is a pure function of its key, so a hit, a
 * fresh build, a racing double-build and an eviction followed by a
 * rebuild all yield identical bytes. Only the counters are
 * host-volatile.
 */

#ifndef TA_EXEC_WEIGHT_MEMO_H
#define TA_EXEC_WEIGHT_MEMO_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "quant/bitslice.h"

namespace ta {

/** Byte budget of a weight memo (one per standalone accelerator, one
 *  per ta_serve process). One LLaMA suite pass holds about 3.8 MiB of
 *  planes: seven 512 KiB FC planes plus two small attention planes. */
constexpr size_t kWeightMemoBudgetBytes = size_t{16} << 20;

class WeightMemo
{
  public:
    /** The synthesis inputs that determine a plane. */
    struct Key
    {
        size_t rows = 0; ///< representative rows (N)
        size_t cols = 0; ///< representative columns (K)
        int bits = 0;    ///< weight width (S)
        uint64_t seed = 0;

        auto operator<=>(const Key &) const = default;
    };

    struct Counters
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        size_t residentBytes = 0; ///< packed bytes held now
        size_t planes = 0;        ///< planes held now
    };

    using Plane = std::shared_ptr<const PackedPlane>;

    explicit WeightMemo(size_t budgetBytes) : budget_(budgetBytes) {}

    /**
     * The plane held for `key`, or build() run outside the lock and
     * inserted. `*hit` (when given) reports which.
     */
    Plane getOrBuild(const Key &key,
                     const std::function<PackedPlane()> &build,
                     bool *hit = nullptr);

    /** Whether a plane for `key` is resident now (no counter moves):
     *  the service planner's read-only look at the memo. */
    bool contains(const Key &key) const;

    Counters counters() const;

  private:
    const size_t budget_;
    mutable std::mutex mu_;
    std::map<Key, Plane> planes_;
    std::deque<Key> order_; ///< insertion order, oldest first
    Counters counters_;
};

} // namespace ta

#endif // TA_EXEC_WEIGHT_MEMO_H
