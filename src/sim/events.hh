/**
 * @file
 * Performance-event catalog (paper §II, §III-J).
 *
 * Events are identified by an (event-select, umask) pair like on real
 * Intel/AMD PMUs; configuration files map these codes to names. The
 * catalog maps codes to the semantic EventId values the simulator
 * increments. Like in nanoBench, events are NOT hard-coded in the tool;
 * new configuration files can name any catalogued code.
 */

#ifndef NB_SIM_EVENTS_HH
#define NB_SIM_EVENTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace nb::sim
{

/** Semantic performance events the simulated core can count. */
enum class EventId : std::uint8_t
{
    // Fixed-function (§II-A1)
    InstrRetired,
    CoreCycles,
    RefCycles,
    // Programmable (§II-A2)
    UopsIssued,
    UopsExecuted,
    UopsPort0,
    UopsPort1,
    UopsPort2,
    UopsPort3,
    UopsPort4,
    UopsPort5,
    UopsPort6,
    UopsPort7,
    MemLoadL1Hit,
    MemLoadL1Miss,
    MemLoadL2Hit,
    MemLoadL2Miss,
    MemLoadL3Hit,
    MemLoadL3Miss,
    L1dReplacement,
    DtlbMissStlbHit,
    DtlbMissWalk,
    BrInstRetired,
    BrMispRetired,
    MemLoads,
    MemStores,
    NumEvents,
};

inline constexpr unsigned kNumEvents =
    static_cast<unsigned>(EventId::NumEvents);

/** Raw programmable-counter event code, as written in config files. */
struct EventCode
{
    std::uint8_t evsel = 0;
    std::uint8_t umask = 0;

    bool operator==(const EventCode &) const = default;
    auto operator<=>(const EventCode &) const = default;
};

/** One catalog entry. */
struct EventInfo
{
    EventCode code;
    EventId id;
    std::string name;
};

/** The full event catalog. */
const std::vector<EventInfo> &eventCatalog();

/** Look up an event by code; nullopt if not catalogued. */
std::optional<EventInfo> findEvent(EventCode code);

/** Look up an event by name; nullopt if unknown. */
std::optional<EventInfo> findEvent(const std::string &name);

/** Canonical name of a semantic event. */
std::string eventIdName(EventId id);

/** The port-dispatch event for port @p port (0-7). Inline: the
 *  executors call this for every dispatched µop. */
NB_ALWAYS_INLINE inline EventId
portEvent(unsigned port)
{
    NB_ASSERT(port < 8, "port event index out of range: ", port);
    return static_cast<EventId>(static_cast<unsigned>(EventId::UopsPort0) +
                                port);
}

} // namespace nb::sim

#endif // NB_SIM_EVENTS_HH
