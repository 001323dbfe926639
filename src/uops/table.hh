/**
 * @file
 * Catalog-wide instruction tables (paper §V, uops.info-style).
 *
 * An InstructionTable is the result of characterizing a whole variant
 * catalog on one microarchitecture: one VariantResult row per variant,
 * in catalog order, plus the metadata identifying where the numbers
 * came from. Tables round-trip through JSON and CSV (so they can be
 * archived as golden references and post-processed externally) and can
 * be diffed against each other -- two microarchitectures, or a fresh
 * run against a committed golden table.
 *
 * buildInstructionTable() is the campaign-backed builder: it plans the
 * full catalog (uops/characterize.hh), ships the plan through
 * Engine::runCampaign() and decodes the outcomes back into rows.
 * Per-spec failures degrade the affected row instead of aborting the
 * catalog.
 */

#ifndef NB_UOPS_TABLE_HH
#define NB_UOPS_TABLE_HH

#include <functional>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "uops/characterize.hh"

namespace nb::uops
{

/** A full-catalog characterization result for one microarchitecture. */
struct InstructionTable
{
    /** Microarchitecture the table was measured on (e.g. "Skylake"). */
    std::string uarch;
    /** Runner mode: "kernel" or "user" (§III-D). */
    std::string mode;
    /** One row per catalog variant, in catalog order. */
    std::vector<VariantResult> rows;

    /** Row by signature; nullptr if absent. */
    const VariantResult *find(const std::string &signature) const;

    /** Rows with a non-empty error (failed benchmarks). */
    std::size_t errorCount() const;

    /** Human-readable table (header + one tableRow() per variant). */
    std::string format() const;

    /** Serialize to a self-contained JSON object. */
    std::string toJson() const;

    /** Serialize to CSV (one row per variant; metadata in '#' header
     *  comments, the BenchmarkResult dialect). */
    std::string toCsv() const;

    /** Parse a table back from toJson() output.
     *  @throws nb::FatalError on malformed input or a missing
     *  "uarch", "mode" or "rows" member. */
    static InstructionTable fromJson(const std::string &text);

    /** Parse a table back from toCsv() output. The first row that is
     *  not a '#' comment must be the column header toCsv() writes.
     *  @throws nb::FatalError on malformed input or a missing header. */
    static InstructionTable fromCsv(const std::string &text);

    /** Load a table from a file, auto-detecting JSON vs CSV.
     *  @throws nb::FatalError on unreadable or malformed input. */
    static InstructionTable load(const std::string &path);
};

/** One changed/added/removed row between two tables. */
struct TableDiffEntry
{
    enum class Kind : std::uint8_t
    {
        /** Signature only in the second table. */
        Added,
        /** Signature only in the first table. */
        Removed,
        /** Latency appeared/disappeared or moved beyond tolerance. */
        LatencyChanged,
        /** Throughput moved beyond tolerance. */
        ThroughputChanged,
        /** µop count moved beyond tolerance. */
        UopsChanged,
        /** Port set or per-port usage moved beyond tolerance. */
        PortsChanged,
        /** Kernel-mode requirement or error status flipped. */
        StatusChanged,
    };

    Kind kind = Kind::Added;
    std::string signature;
    /** Human-readable "what changed", e.g. "latency 1.00 -> 3.00". */
    std::string detail;
};

/** The differences between two tables. */
struct TableDiff
{
    std::vector<TableDiffEntry> entries;

    bool empty() const { return entries.empty(); }

    /** One line per entry ("SIG: latency 1.00 -> 3.00"). */
    std::string format() const;
};

/**
 * Compare two tables row-by-row (matched by signature, so catalogs of
 * different sizes -- e.g. two microarchitectures -- diff cleanly).
 * Numeric fields count as changed when they differ by more than
 * @p tolerance cycles.
 */
TableDiff diffTables(const InstructionTable &before,
                     const InstructionTable &after,
                     double tolerance = 0.05);

/** Options for buildInstructionTable(). */
struct TableBuildOptions
{
    /** Machine selection (uarch, mode, seed) for the campaign. */
    SessionOptions session;
    /** Campaign worker threads (0 = one per hardware thread). */
    unsigned jobs = 1;
    /** Share outcomes of identical specs. */
    bool dedup = true;
    /** Campaign progress callback (settled specs / total specs). */
    std::function<void(std::size_t done, std::size_t total)> progress;
    /** Span tracer forwarded to the campaign (not owned; may be
     *  null). See CampaignOptions::trace. */
    obs::Tracer *trace = nullptr;
    /** Attach per-worker execution observers (never perturbs
     *  outcomes). See CampaignOptions::observe. */
    bool observe = false;
};

/** Everything buildInstructionTable() produces. */
struct TableBuild
{
    InstructionTable table;
    /** The underlying campaign's execution report (wall time,
     *  per-worker counts, dedup hits, error histogram). */
    CampaignReport report;
};

/**
 * Characterize the full variant catalog through Engine::runCampaign()
 * and assemble the rows into a table. @throws nb::FatalError for an
 * unknown uarch (before any work starts); per-spec failures are
 * folded into the affected rows instead.
 */
TableBuild buildInstructionTable(Engine &engine,
                                 const TableBuildOptions &options = {});

} // namespace nb::uops

#endif // NB_UOPS_TABLE_HH
