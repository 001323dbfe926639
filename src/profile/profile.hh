/**
 * @file
 * MachineProfile: one persistable, diffable artifact per (uarch, mode)
 * unifying the paper's cache/TLB case studies (§VI).
 *
 * Where the §V instruction tables record what the *core* does per
 * instruction, a machine profile records what the *memory system*
 * does: per cache level the measured geometry (sets, associativity,
 * line size, the derived capacity), the dependent-load latency, and
 * the replacement-policy verdict of the random-sequence inference
 * tool; the TLB capacities and miss penalties; and, on CPUs with an
 * adaptive L3, the detected set-dueling leader ranges (§VI-C3).
 *
 * Profiles round-trip exactly through JSON and CSV (so they can be
 * archived as golden references and post-processed externally) and
 * diff against each other -- two microarchitectures, or a fresh run
 * against a committed golden profile. The campaign-backed builder
 * lives in profile/build.hh.
 */

#ifndef NB_PROFILE_PROFILE_HH
#define NB_PROFILE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nb::profile
{

/** Measured characteristics of one cache level. */
struct CacheLevelProfile
{
    /** Level name: "L1", "L2", "L3". */
    std::string level;
    /** Measured number of sets (per slice for a sliced L3). */
    unsigned sets = 0;
    /** Measured associativity. */
    unsigned assoc = 0;
    /** Measured line size in bytes. */
    unsigned lineSize = 0;
    /** Slices (C-Boxes); 1 for unsliced levels. */
    unsigned slices = 1;
    /** Capacity in KiB, derived from the measured geometry. */
    double sizeKb = 0.0;
    /** Dependent-load (pointer-chase) latency in cycles. */
    double loadLatency = 0.0;
    /** Replacement policies agreeing with every measurement (§VI-C1);
     *  empty if none matched or the measurements were not
     *  deterministic. */
    std::vector<std::string> policyMatches;
    /** Policy measurements were reproducible (§VI-D). */
    bool policyDeterministic = true;
    /** Non-empty if this level's experiments failed. */
    std::string error;

    bool ok() const { return error.empty(); }

    /** The unique policy verdict, or "" if ambiguous/none. */
    std::string policy() const
    {
        return policyMatches.size() == 1 ? policyMatches.front() : "";
    }
};

/** Measured TLB characteristics (§VIII future-work tool). */
struct TlbProfile
{
    /** False if the TLB experiments were not planned (user mode). */
    bool measured = false;
    unsigned dtlbEntries = 0;
    unsigned stlbEntries = 0;
    double stlbPenalty = 0.0;
    double walkPenalty = 0.0;
    std::string error;

    bool ok() const { return error.empty(); }
};

/** One detected range of dedicated (leader) sets. */
struct LeaderRangeProfile
{
    unsigned slice = 0;
    unsigned setLo = 0;
    unsigned setHi = 0;
    /** "A" or "B": which duel policy the range is dedicated to. */
    std::string role;

    bool operator==(const LeaderRangeProfile &) const = default;
};

/** Set-dueling detection result (§VI-C3). */
struct DuelingProfile
{
    /** False if the uarch advertises no L3 duel (nothing scanned). */
    bool scanned = false;
    std::string policyA;
    std::string policyB;
    std::vector<LeaderRangeProfile> ranges;
    std::string error;

    bool ok() const { return error.empty(); }
};

/** The full memory-system characterization of one (uarch, mode). */
struct MachineProfile
{
    std::string uarch;
    /** Runner mode: "kernel" or "user" (§III-D). */
    std::string mode;
    std::vector<CacheLevelProfile> levels;
    TlbProfile tlb;
    DuelingProfile dueling;

    /** Level by name ("L1"...); nullptr if absent. */
    const CacheLevelProfile *find(const std::string &level) const;

    /** Sections (levels, TLB, dueling) with a non-empty error. */
    std::size_t errorCount() const;

    /** True when every section measured cleanly. */
    bool complete() const { return errorCount() == 0; }

    /** Human-readable report. */
    std::string format() const;

    /** Serialize to a self-contained JSON object (exact round-trip). */
    std::string toJson() const;

    /** Serialize to CSV ("section,key,value" rows, metadata in '#'
     *  header comments; exact round-trip). */
    std::string toCsv() const;

    /** Parse a profile back from toJson() output.
     *  @throws nb::FatalError on malformed input or a missing
     *  "uarch" or "mode" member. */
    static MachineProfile fromJson(const std::string &text);

    /** Parse a profile back from toCsv() output. The first row that
     *  is not a '#' comment must be the "section,key,value" header.
     *  @throws nb::FatalError on malformed input or a missing header. */
    static MachineProfile fromCsv(const std::string &text);

    /** Load a profile from a file, auto-detecting JSON vs CSV.
     *  @throws nb::FatalError on unreadable or malformed input. */
    static MachineProfile load(const std::string &path);
};

/** One difference between two profiles. */
struct ProfileDiffEntry
{
    enum class Kind : std::uint8_t
    {
        /** Section only in the second profile. */
        Added,
        /** Section only in the first profile. */
        Removed,
        /** Sets/assoc/line/slices/size moved. */
        GeometryChanged,
        /** Load latency moved beyond tolerance. */
        LatencyChanged,
        /** Policy verdict (matches or determinism) flipped. */
        PolicyChanged,
        /** TLB capacity or penalty moved. */
        TlbChanged,
        /** Dueling policies or leader ranges changed. */
        DuelingChanged,
        /** An error appeared/disappeared in a section. */
        StatusChanged,
    };

    Kind kind = Kind::Added;
    /** Where: "L1", "L2", "L3", "tlb", "dueling". */
    std::string section;
    /** Human-readable "what changed", e.g. "assoc 8 -> 4". */
    std::string detail;
};

/** The differences between two profiles. */
struct ProfileDiff
{
    std::vector<ProfileDiffEntry> entries;

    bool empty() const { return entries.empty(); }

    /** One line per entry ("L2: assoc 8 -> 4"). */
    std::string format() const;
};

/**
 * Compare two profiles section by section (levels matched by name, so
 * profiles of different shapes diff cleanly). Cycle-valued fields
 * count as changed when they differ by more than @p tolerance cycles;
 * integer geometry always compares exactly.
 */
ProfileDiff diffProfiles(const MachineProfile &before,
                         const MachineProfile &after,
                         double tolerance = 0.5);

} // namespace nb::profile

#endif // NB_PROFILE_PROFILE_HH
