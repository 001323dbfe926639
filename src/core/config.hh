/**
 * @file
 * Performance-counter configuration files (paper §III-J).
 *
 * Events are specified in a configuration file, one per line, as
 * "<EvSel>.<Umask> <Name>" in hex (e.g. "A1.01
 * UOPS_DISPATCHED_PORT.PORT_0"); '#' starts a comment. Unlike in some
 * previous tools (libpfc), events are not hard-coded: adapting the tool
 * to a new CPU only requires a new configuration file. If a file names
 * more events than there are programmable counters, the benchmark is
 * automatically executed multiple times with different counter
 * configurations (rounds).
 */

#ifndef NB_CORE_CONFIG_HH
#define NB_CORE_CONFIG_HH

#include <string>
#include <vector>

#include "sim/events.hh"

namespace nb::core
{

/** One configured event: catalog entry + display name from the file. */
struct ConfiguredEvent
{
    sim::EventCode code;
    sim::EventId id;
    std::string displayName;
};

/** A parsed counter configuration. */
class CounterConfig
{
  public:
    CounterConfig() = default;

    /** Parse configuration text. Unknown codes are warned about and
     *  skipped (they may exist on other CPUs). */
    static CounterConfig parseString(const std::string &text);

    /** Parse a configuration file. @throws nb::FatalError if the file
     *  cannot be read. */
    static CounterConfig parseFile(const std::string &path);

    /** Default configuration for a microarchitecture name (the shipped
     *  cfg_<uarch>.txt files). */
    static CounterConfig forMicroArch(const std::string &uarch_name);

    const std::vector<ConfiguredEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }

    /** Append the catalog event named @p name, displayed under that
     *  name. Panics if the catalog has no such event: planners only
     *  select events the simulator models. */
    void add(const std::string &name);

    /**
     * Split the events into rounds of at most @p num_prog_counters
     * events; each round is one benchmark execution (§III-J).
     */
    std::vector<std::vector<ConfiguredEvent>>
    rounds(unsigned num_prog_counters) const;

  private:
    std::vector<ConfiguredEvent> events_;
};

/** Directory containing the shipped cfg_*.txt files (set by the build).*/
const char *configDir();

} // namespace nb::core

#endif // NB_CORE_CONFIG_HH
