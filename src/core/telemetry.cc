/**
 * @file
 * EngineTelemetry serialization (see telemetry.hh).
 */

#include "core/telemetry.hh"

#include <sstream>

namespace nb
{

namespace
{

void
emitCache(std::ostringstream &os, const char *name,
          const CacheStats &stats)
{
    os << "  \"" << name << "\": {\"hits\": " << stats.hits
       << ", \"misses\": " << stats.misses
       << ", \"evictions\": " << stats.evictions << "}";
}

} // namespace

std::string
EngineTelemetry::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"pool_size\": " << poolSize << ",\n";
    os << "  \"machines_constructed\": " << machinesConstructed
       << ",\n";
    os << "  \"pool_hits\": " << poolHits << ",\n";
    emitCache(os, "program_cache", program);
    os << ",\n";
    emitCache(os, "assemble_cache", assemble);
    os << ",\n";
    emitCache(os, "lint_cache", lint);
    os << "\n}\n";
    return os.str();
}

std::string
EngineTelemetry::toCsv() const
{
    std::ostringstream os;
    os << "# engine telemetry\n";
    os << "key,value\n";
    os << "pool_size," << poolSize << "\n";
    os << "machines_constructed," << machinesConstructed << "\n";
    os << "pool_hits," << poolHits << "\n";
    os << "program_cache_hits," << program.hits << "\n";
    os << "program_cache_misses," << program.misses << "\n";
    os << "program_cache_evictions," << program.evictions << "\n";
    os << "assemble_cache_hits," << assemble.hits << "\n";
    os << "assemble_cache_misses," << assemble.misses << "\n";
    os << "assemble_cache_evictions," << assemble.evictions << "\n";
    os << "lint_cache_hits," << lint.hits << "\n";
    os << "lint_cache_misses," << lint.misses << "\n";
    os << "lint_cache_evictions," << lint.evictions << "\n";
    return os.str();
}

} // namespace nb
