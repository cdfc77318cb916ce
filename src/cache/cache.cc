#include "cache/cache.hh"

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

bool
Cache::probeTag(std::uint64_t addr) const
{
    return findWay(setOf(addr), tagOf(addr)).has_value();
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

CacheAccess
Cache::access(std::uint64_t addr, Millivolt v_eff, Rng &rng)
{
    const std::uint64_t set = setOf(addr);
    const std::uint64_t tag = tagOf(addr);

    CacheAccess result;
    result.set = set;

    auto way = findWay(set, tag);
    if (way) {
        result.hit = true;
        result.way = *way;
        ++hits;
    } else {
        result.hit = false;
        result.way = victimWay(set);
        auto &e = entry(set, result.way);
        e.valid = true;
        e.tag = tag;
        ++misses;
        // Model the fill: the incoming line is written to the data
        // array (contents abstracted as the line address pattern).
        array.writePattern(set, result.way, addr / lineBytes);
    }

    entry(set, result.way).lruStamp = ++lruClock;

    array.readLine(set, result.way, v_eff, rng, readBuffer);
    if (!readBuffer.events.empty())
        result.events = readBuffer.events;
    result.uncorrectable = readBuffer.uncorrectable;
    return result;
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
