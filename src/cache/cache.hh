/**
 * @file
 * Functional set-associative cache: tag store, true-LRU replacement,
 * line deconfiguration, and ECC error sampling on data reads.
 *
 * The cache is physically indexed on byte addresses. It is deliberately
 * not a coherence model — the paper's Itanium L1/L2 caches are private
 * per core and the mechanism only needs hit/miss placement behaviour
 * (for the L1-bypass targeted test of Fig. 7) plus ECC feedback on the
 * data array.
 */

#ifndef VSPEC_CACHE_CACHE_HH
#define VSPEC_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/ecc_event.hh"
#include "cache/geometry.hh"
#include "common/rng.hh"

namespace vspec
{

/** Outcome of one cache access. */
struct CacheAccess
{
    bool hit = false;
    std::uint64_t set = 0;
    unsigned way = 0;
    std::vector<EccEvent> events;
    bool uncorrectable = false;
};

class Cache
{
  public:
    Cache(const CacheGeometry &geometry, const VcDistribution &dist,
          Millivolt v_floor, Rng &rng);

    const CacheGeometry &geometry() const { return array.geometry(); }
    const CacheArray &dataArray() const { return array; }
    CacheArray &dataArray() { return array; }

    /** Set index for a byte address. */
    std::uint64_t setOf(std::uint64_t addr) const;
    /** Tag for a byte address. */
    std::uint64_t tagOf(std::uint64_t addr) const;

    /**
     * Access the cache at effective supply v_eff. On a hit the data
     * array is read (sampling ECC events) and LRU is updated. On a miss
     * the line is filled into the LRU victim way, skipping
     * deconfigured lines, and then read.
     */
    CacheAccess access(std::uint64_t addr, Millivolt v_eff, Rng &rng);

    /** The hit half of access, on one tag lookup: a miss changes nothing. */
    std::optional<CacheAccess> accessIfHit(std::uint64_t addr,
                                           Millivolt v_eff, Rng &rng);

    /** Invalidate every line (keeps deconfiguration). */
    void invalidateAll();

    /**
     * Remove a line from normal allocation — the monitor's designated
     * line stores no program data (Section III-C).
     */
    void deconfigureLine(std::uint64_t set, unsigned way);
    bool isDeconfigured(std::uint64_t set, unsigned way) const;
    /** Restore a previously deconfigured line to service. */
    void reconfigureLine(std::uint64_t set, unsigned way);

    std::uint64_t hitCount() const { return hits; }
    std::uint64_t missCount() const { return misses; }

  private:
    struct TagEntry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        /** Lower is more recently used. */
        std::uint64_t lruStamp = 0;
    };

    CacheArray array;
    /**
     * The geometry's line size, set count and associativity, resolved
     * once from the validated array: numSets() costs two divisions,
     * and setOf, tagOf and every way scan run on each access.
     */
    unsigned lineBytes;
    std::uint64_t setCount;
    unsigned ways;
    std::vector<TagEntry> tags;
    /**
     * Every access reads its line into this buffer, so reads reuse its
     * capacity; copying out its events allocates only if there are any.
     */
    LineReadResult readBuffer;
    std::uint64_t lruClock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /**
     * (pattern, codeword) of past fills, direct-mapped on the mixed
     * pattern and allocated on the first fill with every slot valid:
     * the self-test refills the same dozen lines, so most fills reuse
     * an encode. A collision only re-encodes.
     */
    static constexpr std::size_t fillSlots = 256;
    std::unique_ptr<std::pair<std::uint64_t, Codeword>[]> fillMemo;

    /** Stamp LRU and read the line (set, way) into a CacheAccess. */
    CacheAccess readWay(std::uint64_t set, unsigned way, bool hit,
                        Millivolt v_eff, Rng &rng);

    TagEntry &entry(std::uint64_t set, unsigned way);
    const TagEntry &entry(std::uint64_t set, unsigned way) const;
    std::optional<unsigned> findWay(std::uint64_t set,
                                    std::uint64_t tag) const;
    unsigned victimWay(std::uint64_t set) const;
};

} // namespace vspec

#endif // VSPEC_CACHE_CACHE_HH
