/**
 * @file
 * Counter-configuration parsing.
 */

#include "config.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/strings.hh"

#ifndef NB_CONFIG_DIR
#define NB_CONFIG_DIR "configs"
#endif

namespace nb::core
{

const char *
configDir()
{
    return NB_CONFIG_DIR;
}

CounterConfig
CounterConfig::parseString(const std::string &text)
{
    CounterConfig cfg;
    for (const auto &raw_line : split(text, '\n')) {
        std::string line = raw_line;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        auto fields = splitWhitespace(line);
        if (fields.size() < 2) {
            warn("counter config: skipping malformed line '", line, "'");
            continue;
        }
        auto code_parts = split(fields[0], '.');
        if (code_parts.size() != 2) {
            warn("counter config: bad event code '", fields[0], "'");
            continue;
        }
        auto evsel = parseHex(code_parts[0]);
        auto umask = parseHex(code_parts[1]);
        if (!evsel || !umask || *evsel > 0xFF || *umask > 0xFF) {
            warn("counter config: bad event code '", fields[0], "'");
            continue;
        }
        sim::EventCode code{static_cast<std::uint8_t>(*evsel),
                            static_cast<std::uint8_t>(*umask)};
        auto info = sim::findEvent(code);
        if (!info) {
            warn("counter config: event ", fields[0], " (", fields[1],
                 ") is not supported by this CPU model; skipping");
            continue;
        }
        cfg.events_.push_back(ConfiguredEvent{code, info->id, fields[1]});
    }
    return cfg;
}

void
CounterConfig::add(const std::string &name)
{
    auto info = sim::findEvent(name);
    if (!info)
        panic("event missing from catalog: ", name);
    events_.push_back(ConfiguredEvent{info->code, info->id, info->name});
}

CounterConfig
CounterConfig::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open counter config file '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseString(ss.str());
}

CounterConfig
CounterConfig::forMicroArch(const std::string &uarch_name)
{
    return parseFile(std::string(configDir()) + "/cfg_" + uarch_name +
                     ".txt");
}

std::vector<std::vector<ConfiguredEvent>>
CounterConfig::rounds(unsigned num_prog_counters) const
{
    NB_ASSERT(num_prog_counters > 0, "need at least one counter");
    std::vector<std::vector<ConfiguredEvent>> out;
    for (std::size_t i = 0; i < events_.size(); i += num_prog_counters) {
        std::size_t end = std::min(events_.size(),
                                   i + num_prog_counters);
        out.emplace_back(events_.begin() + static_cast<std::ptrdiff_t>(i),
                         events_.begin() +
                             static_cast<std::ptrdiff_t>(end));
    }
    return out;
}

} // namespace nb::core
