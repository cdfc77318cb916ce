#include "cache/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vspec
{

Cache::Cache(const CacheGeometry &geometry, const VcDistribution &dist,
             Millivolt v_floor, Rng &rng)
    : array(geometry, dist, v_floor, rng),
      lineBytes(array.geometry().lineBytes),
      setCount(array.geometry().numSets()),
      ways(array.geometry().associativity),
      tags(array.geometry().numLines())
{
}

std::uint64_t
Cache::setOf(std::uint64_t addr) const
{
    return (addr / lineBytes) % setCount;
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return (addr / lineBytes) / setCount;
}

Cache::TagEntry &
Cache::entry(std::uint64_t set, unsigned way)
{
    return tags.at(set * ways + way);
}

const Cache::TagEntry &
Cache::entry(std::uint64_t set, unsigned way) const
{
    return tags.at(set * ways + way);
}

std::optional<unsigned>
Cache::findWay(std::uint64_t set, std::uint64_t tag) const
{
    for (unsigned way = 0; way < ways; ++way) {
        const auto &e = entry(set, way);
        // Tags first: the deconfiguration query (and its bounds check)
        // runs only for the way that matches.
        if (e.valid && e.tag == tag && !array.isDeconfigured(set, way))
            return way;
    }
    return std::nullopt;
}

unsigned
Cache::victimWay(std::uint64_t set) const
{
    // Invalid (non-deconfigured) ways first, then true LRU.
    std::optional<unsigned> victim;
    std::uint64_t oldest = 0;
    for (unsigned way = 0; way < ways; ++way) {
        const auto &e = entry(set, way);
        if (array.isDeconfigured(set, way))
            continue;
        if (!e.valid)
            return way;
        if (!victim || e.lruStamp < oldest) {
            victim = way;
            oldest = e.lruStamp;
        }
    }
    if (!victim)
        fatal("cache '", geometry().name, "': every way of set ", set,
              " is deconfigured");
    return *victim;
}

std::optional<CacheAccess>
Cache::accessIfHit(std::uint64_t addr, Millivolt v_eff, Rng &rng)
{
    const std::uint64_t set = setOf(addr);
    const auto way = findWay(set, tagOf(addr));
    if (!way)
        return std::nullopt;
    ++hits;
    return readWay(set, *way, true, v_eff, rng);
}

CacheAccess
Cache::access(std::uint64_t addr, Millivolt v_eff, Rng &rng)
{
    if (auto hit = accessIfHit(addr, v_eff, rng))
        return std::move(*hit);

    const std::uint64_t set = setOf(addr);
    const unsigned way = victimWay(set);
    entry(set, way) = {true, tagOf(addr)};
    ++misses;
    // Model the fill: the incoming line is written to the data array
    // (contents abstracted as the line address pattern).
    const std::uint64_t pattern = addr / lineBytes;
    if (!fillMemo) {
        fillMemo = std::make_unique<std::pair<std::uint64_t, Codeword>[]>(
            fillSlots);
        std::fill_n(fillMemo.get(), fillSlots,
                    std::pair(std::uint64_t(0), array.codec().encode(0)));
    }
    auto &[filled, encoded] = fillMemo[mix64(pattern) & (fillSlots - 1)];
    if (filled != pattern) {
        filled = pattern;
        encoded = array.codec().encode(pattern);
    }
    array.fillLine(set, way, encoded);
    return readWay(set, way, false, v_eff, rng);
}

CacheAccess
Cache::readWay(std::uint64_t set, unsigned way, bool hit, Millivolt v_eff,
               Rng &rng)
{
    entry(set, way).lruStamp = ++lruClock;
    array.readLine(set, way, v_eff, rng, readBuffer);
    return {hit, set, way, readBuffer.events, readBuffer.uncorrectable};
}

void
Cache::invalidateAll()
{
    for (auto &e : tags) {
        e.valid = false;
        e.lruStamp = 0;
    }
    lruClock = 0;
}

void
Cache::deconfigureLine(std::uint64_t set, unsigned way)
{
    array.deconfigureLine(set, way);
    entry(set, way).valid = false;
}

bool
Cache::isDeconfigured(std::uint64_t set, unsigned way) const
{
    return array.isDeconfigured(set, way);
}

void
Cache::reconfigureLine(std::uint64_t set, unsigned way)
{
    array.reconfigureLine(set, way);
}

} // namespace vspec
