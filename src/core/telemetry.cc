/**
 * @file
 * EngineTelemetry serialization (see telemetry.hh). All fields are
 * integral counters, so the JSON round-trip is exact.
 */

#include "core/telemetry.hh"

#include <sstream>

#include "common/logging.hh"
#include "core/json.hh"

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

CacheStats
parseCache(core::JsonCursor &cur)
{
    CacheStats stats;
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "hits")
                stats.hits =
                    static_cast<std::uint64_t>(cur.parseNumber());
            else if (key == "misses")
                stats.misses =
                    static_cast<std::uint64_t>(cur.parseNumber());
            else if (key == "evictions")
                stats.evictions =
                    static_cast<std::uint64_t>(cur.parseNumber());
            else
                cur.skipValue();
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    return stats;
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

EngineTelemetry
EngineTelemetry::parse(core::JsonCursor &cur)
{
    EngineTelemetry t;
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "pool_size") {
                t.poolSize =
                    static_cast<std::uint64_t>(cur.parseNumber());
            } else if (key == "machines_constructed") {
                t.machinesConstructed =
                    static_cast<std::uint64_t>(cur.parseNumber());
            } else if (key == "pool_hits") {
                t.poolHits =
                    static_cast<std::uint64_t>(cur.parseNumber());
            } else if (key == "program_cache") {
                t.program = parseCache(cur);
            } else if (key == "assemble_cache") {
                t.assemble = parseCache(cur);
            } else if (key == "lint_cache") {
                t.lint = parseCache(cur);
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    return t;
}

EngineTelemetry
EngineTelemetry::fromJson(const std::string &text)
{
    core::JsonCursor cur(text);
    EngineTelemetry t = parse(cur);
    cur.expectEnd();
    return t;
}

} // namespace nb
