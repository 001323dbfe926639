/**
 * @file
 * Event-catalog implementation. Codes follow the Intel SDM encodings for
 * recognizability (e.g. A1.01 = UOPS_DISPATCHED_PORT.PORT_0).
 */

#include "events.hh"

#include "common/logging.hh"

namespace nb::sim
{

const std::vector<EventInfo> &
eventCatalog()
{
    static const std::vector<EventInfo> catalog = {
        {{0xC0, 0x00}, EventId::InstrRetired, "INST_RETIRED.ANY_P"},
        {{0x3C, 0x00}, EventId::CoreCycles, "CPU_CLK_UNHALTED.THREAD_P"},
        {{0x3C, 0x01}, EventId::RefCycles, "CPU_CLK_UNHALTED.REF_XCLK"},
        {{0x0E, 0x01}, EventId::UopsIssued, "UOPS_ISSUED.ANY"},
        {{0xB1, 0x01}, EventId::UopsExecuted, "UOPS_EXECUTED.THREAD"},
        {{0xA1, 0x01}, EventId::UopsPort0, "UOPS_DISPATCHED_PORT.PORT_0"},
        {{0xA1, 0x02}, EventId::UopsPort1, "UOPS_DISPATCHED_PORT.PORT_1"},
        {{0xA1, 0x04}, EventId::UopsPort2, "UOPS_DISPATCHED_PORT.PORT_2"},
        {{0xA1, 0x08}, EventId::UopsPort3, "UOPS_DISPATCHED_PORT.PORT_3"},
        {{0xA1, 0x10}, EventId::UopsPort4, "UOPS_DISPATCHED_PORT.PORT_4"},
        {{0xA1, 0x20}, EventId::UopsPort5, "UOPS_DISPATCHED_PORT.PORT_5"},
        {{0xA1, 0x40}, EventId::UopsPort6, "UOPS_DISPATCHED_PORT.PORT_6"},
        {{0xA1, 0x80}, EventId::UopsPort7, "UOPS_DISPATCHED_PORT.PORT_7"},
        {{0xD1, 0x01}, EventId::MemLoadL1Hit, "MEM_LOAD_RETIRED.L1_HIT"},
        {{0xD1, 0x08}, EventId::MemLoadL1Miss, "MEM_LOAD_RETIRED.L1_MISS"},
        {{0xD1, 0x02}, EventId::MemLoadL2Hit, "MEM_LOAD_RETIRED.L2_HIT"},
        {{0xD1, 0x10}, EventId::MemLoadL2Miss, "MEM_LOAD_RETIRED.L2_MISS"},
        {{0xD1, 0x04}, EventId::MemLoadL3Hit, "MEM_LOAD_RETIRED.L3_HIT"},
        {{0xD1, 0x20}, EventId::MemLoadL3Miss, "MEM_LOAD_RETIRED.L3_MISS"},
        {{0x51, 0x01}, EventId::L1dReplacement, "L1D.REPLACEMENT"},
        {{0x08, 0x20}, EventId::DtlbMissStlbHit,
         "DTLB_LOAD_MISSES.STLB_HIT"},
        {{0x08, 0x01}, EventId::DtlbMissWalk,
         "DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK"},
        {{0xC4, 0x00}, EventId::BrInstRetired,
         "BR_INST_RETIRED.ALL_BRANCHES"},
        {{0xC5, 0x00}, EventId::BrMispRetired,
         "BR_MISP_RETIRED.ALL_BRANCHES"},
        {{0xD0, 0x81}, EventId::MemLoads, "MEM_INST_RETIRED.ALL_LOADS"},
        {{0xD0, 0x82}, EventId::MemStores, "MEM_INST_RETIRED.ALL_STORES"},
    };
    return catalog;
}

std::optional<EventInfo>
findEvent(EventCode code)
{
    for (const auto &e : eventCatalog()) {
        if (e.code == code)
            return e;
    }
    return std::nullopt;
}

std::optional<EventInfo>
findEvent(const std::string &name)
{
    for (const auto &e : eventCatalog()) {
        if (e.name == name)
            return e;
    }
    return std::nullopt;
}

std::string
eventIdName(EventId id)
{
    for (const auto &e : eventCatalog()) {
        if (e.id == id)
            return e.name;
    }
    switch (id) {
      case EventId::InstrRetired:
        return "INST_RETIRED";
      case EventId::CoreCycles:
        return "CORE_CYCLES";
      case EventId::RefCycles:
        return "REF_CYCLES";
      default:
        return "UNKNOWN_EVENT";
    }
}

} // namespace nb::sim
