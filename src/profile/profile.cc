/**
 * @file
 * MachineProfile implementation: formatting, exact JSON/CSV
 * round-trip, and profile diffing.
 */

#include "profile.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "common/logging.hh"
#include "common/strings.hh"
#include "core/json.hh"
#include "core/result.hh"

namespace nb::profile
{

using core::csvEscape;
using core::csvUnescape;
using core::exactDouble;
using core::fixed2;
using core::JsonCursor;
using core::jsonEscape;
using core::splitCsvRecord;

// ------------------------------------------------------------ profile --

const CacheLevelProfile *
MachineProfile::find(const std::string &level) const
{
    for (const auto &l : levels) {
        if (l.level == level)
            return &l;
    }
    return nullptr;
}

std::size_t
MachineProfile::errorCount() const
{
    std::size_t count = 0;
    for (const auto &l : levels)
        count += l.ok() ? 0 : 1;
    count += tlb.ok() ? 0 : 1;
    count += dueling.ok() ? 0 : 1;
    return count;
}

namespace
{

std::string
joinPolicies(const std::vector<std::string> &policies)
{
    std::string out;
    for (const auto &p : policies) {
        if (!out.empty())
            out += " ";
        out += p;
    }
    return out;
}

std::string
policyVerdict(const CacheLevelProfile &level)
{
    if (!level.policyDeterministic)
        return "non-deterministic (age graphs needed, §VI-D)";
    if (level.policyMatches.empty())
        return "no candidate matches";
    if (level.policyMatches.size() == 1)
        return level.policyMatches.front();
    return joinPolicies(level.policyMatches) + " (ambiguous)";
}

} // namespace

std::string
MachineProfile::format() const
{
    std::ostringstream os;
    os << "Machine profile: " << uarch << ", " << mode << " mode\n";
    for (const auto &l : levels) {
        os << "  " << l.level << ": ";
        if (!l.ok()) {
            os << "ERROR: " << l.error << "\n";
            continue;
        }
        os << l.sizeKb << " KiB (" << l.sets << " sets x " << l.assoc
           << " ways x " << l.lineSize << " B";
        if (l.slices > 1)
            os << " x " << l.slices << " slices";
        os << "), latency " << fixed2(l.loadLatency) << " cycles, policy "
           << policyVerdict(l) << "\n";
    }
    os << "  TLB: ";
    if (!tlb.measured) {
        os << "not measured\n";
    } else if (!tlb.ok()) {
        os << "ERROR: " << tlb.error << "\n";
    } else {
        os << tlb.dtlbEntries << " DTLB / " << tlb.stlbEntries
           << " STLB entries, penalties " << fixed2(tlb.stlbPenalty)
           << " / " << fixed2(tlb.walkPenalty) << " cycles\n";
    }
    os << "  Set dueling: ";
    if (!dueling.scanned) {
        os << "no duel advertised\n";
    } else if (!dueling.ok()) {
        os << "ERROR: " << dueling.error << "\n";
    } else {
        os << dueling.policyA << " vs " << dueling.policyB << "\n";
        for (const auto &r : dueling.ranges) {
            os << "    slice " << r.slice << ": sets " << r.setLo << "-"
               << r.setHi << " fixed-" << r.role << "\n";
        }
        if (dueling.ranges.empty())
            os << "    no dedicated sets found\n";
    }
    return os.str();
}

// --------------------------------------------------------------- JSON --

std::string
MachineProfile::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"uarch\": \"" << jsonEscape(uarch) << "\",\n";
    os << "  \"mode\": \"" << jsonEscape(mode) << "\",\n";
    os << "  \"levels\": [";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const CacheLevelProfile &l = levels[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"level\": \"" << jsonEscape(l.level) << "\""
           << ", \"sets\": " << l.sets << ", \"assoc\": " << l.assoc
           << ", \"line\": " << l.lineSize
           << ", \"slices\": " << l.slices
           << ", \"size_kb\": " << exactDouble(l.sizeKb)
           << ", \"latency\": " << exactDouble(l.loadLatency)
           << ", \"deterministic\": " << (l.policyDeterministic ? 1 : 0)
           << ", \"policies\": \""
           << jsonEscape(joinPolicies(l.policyMatches)) << "\"";
        if (!l.error.empty())
            os << ", \"error\": \"" << jsonEscape(l.error) << "\"";
        os << "}";
    }
    os << (levels.empty() ? "],\n" : "\n  ],\n");
    os << "  \"tlb\": {\"measured\": " << (tlb.measured ? 1 : 0)
       << ", \"dtlb_entries\": " << tlb.dtlbEntries
       << ", \"stlb_entries\": " << tlb.stlbEntries
       << ", \"stlb_penalty\": " << exactDouble(tlb.stlbPenalty)
       << ", \"walk_penalty\": " << exactDouble(tlb.walkPenalty);
    if (!tlb.error.empty())
        os << ", \"error\": \"" << jsonEscape(tlb.error) << "\"";
    os << "},\n";
    os << "  \"dueling\": {\"scanned\": " << (dueling.scanned ? 1 : 0)
       << ", \"policy_a\": \"" << jsonEscape(dueling.policyA) << "\""
       << ", \"policy_b\": \"" << jsonEscape(dueling.policyB) << "\""
       << ", \"ranges\": [";
    for (std::size_t i = 0; i < dueling.ranges.size(); ++i) {
        const LeaderRangeProfile &r = dueling.ranges[i];
        os << (i ? ", " : "") << "{\"slice\": " << r.slice
           << ", \"lo\": " << r.setLo << ", \"hi\": " << r.setHi
           << ", \"role\": \"" << jsonEscape(r.role) << "\"}";
    }
    os << "]";
    if (!dueling.error.empty())
        os << ", \"error\": \"" << jsonEscape(dueling.error) << "\"";
    os << "}\n";
    os << "}\n";
    return os.str();
}

namespace
{

std::vector<std::string>
splitPolicies(const std::string &text)
{
    return splitWhitespace(text);
}

CacheLevelProfile
parseJsonLevel(JsonCursor &cur)
{
    CacheLevelProfile level;
    cur.expect('{');
    do {
        std::string key = cur.parseString();
        cur.expect(':');
        if (key == "level")
            level.level = cur.parseString();
        else if (key == "sets")
            level.sets = static_cast<unsigned>(cur.parseNumber());
        else if (key == "assoc")
            level.assoc = static_cast<unsigned>(cur.parseNumber());
        else if (key == "line")
            level.lineSize = static_cast<unsigned>(cur.parseNumber());
        else if (key == "slices")
            level.slices = static_cast<unsigned>(cur.parseNumber());
        else if (key == "size_kb")
            level.sizeKb = cur.parseNumber();
        else if (key == "latency")
            level.loadLatency = cur.parseNumber();
        else if (key == "deterministic")
            level.policyDeterministic = cur.parseNumber() != 0.0;
        else if (key == "policies")
            level.policyMatches = splitPolicies(cur.parseString());
        else if (key == "error")
            level.error = cur.parseString();
        else
            cur.skipValue();
    } while (cur.tryConsume(','));
    cur.expect('}');
    return level;
}

TlbProfile
parseJsonTlb(JsonCursor &cur)
{
    TlbProfile tlb;
    cur.expect('{');
    do {
        std::string key = cur.parseString();
        cur.expect(':');
        if (key == "measured")
            tlb.measured = cur.parseNumber() != 0.0;
        else if (key == "dtlb_entries")
            tlb.dtlbEntries = static_cast<unsigned>(cur.parseNumber());
        else if (key == "stlb_entries")
            tlb.stlbEntries = static_cast<unsigned>(cur.parseNumber());
        else if (key == "stlb_penalty")
            tlb.stlbPenalty = cur.parseNumber();
        else if (key == "walk_penalty")
            tlb.walkPenalty = cur.parseNumber();
        else if (key == "error")
            tlb.error = cur.parseString();
        else
            cur.skipValue();
    } while (cur.tryConsume(','));
    cur.expect('}');
    return tlb;
}

DuelingProfile
parseJsonDueling(JsonCursor &cur)
{
    DuelingProfile duel;
    cur.expect('{');
    do {
        std::string key = cur.parseString();
        cur.expect(':');
        if (key == "scanned") {
            duel.scanned = cur.parseNumber() != 0.0;
        } else if (key == "policy_a") {
            duel.policyA = cur.parseString();
        } else if (key == "policy_b") {
            duel.policyB = cur.parseString();
        } else if (key == "error") {
            duel.error = cur.parseString();
        } else if (key == "ranges") {
            cur.expect('[');
            if (!cur.tryConsume(']')) {
                do {
                    LeaderRangeProfile range;
                    cur.expect('{');
                    do {
                        std::string rkey = cur.parseString();
                        cur.expect(':');
                        if (rkey == "slice")
                            range.slice = static_cast<unsigned>(
                                cur.parseNumber());
                        else if (rkey == "lo")
                            range.setLo = static_cast<unsigned>(
                                cur.parseNumber());
                        else if (rkey == "hi")
                            range.setHi = static_cast<unsigned>(
                                cur.parseNumber());
                        else if (rkey == "role")
                            range.role = cur.parseString();
                        else
                            cur.skipValue();
                    } while (cur.tryConsume(','));
                    cur.expect('}');
                    duel.ranges.push_back(std::move(range));
                } while (cur.tryConsume(','));
                cur.expect(']');
            }
        } else {
            cur.skipValue();
        }
    } while (cur.tryConsume(','));
    cur.expect('}');
    return duel;
}

} // namespace

MachineProfile
MachineProfile::fromJson(const std::string &text)
{
    MachineProfile profile;
    bool has_uarch = false, has_mode = false;
    JsonCursor cur(text);
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "uarch") {
                profile.uarch = cur.parseString();
                has_uarch = true;
            } else if (key == "mode") {
                profile.mode = cur.parseString();
                has_mode = true;
            } else if (key == "levels") {
                cur.expect('[');
                if (!cur.tryConsume(']')) {
                    do {
                        profile.levels.push_back(parseJsonLevel(cur));
                    } while (cur.tryConsume(','));
                    cur.expect(']');
                }
            } else if (key == "tlb") {
                profile.tlb = parseJsonTlb(cur);
            } else if (key == "dueling") {
                profile.dueling = parseJsonDueling(cur);
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    // toJson() always writes these; without them this is not a profile.
    if (!has_uarch || !has_mode)
        fatal("JSON profile: needs \"uarch\" and \"mode\" members");
    return profile;
}

// ---------------------------------------------------------------- CSV --

namespace
{
/** The column header toCsv() writes and fromCsv() requires. */
const char *const kCsvHeader = "section,key,value";
} // namespace

std::string
MachineProfile::toCsv() const
{
    std::ostringstream os;
    os << "# machine profile\n";
    os << "# uarch: " << uarch << "\n";
    os << "# mode: " << mode << "\n";
    os << kCsvHeader << "\n";
    auto row = [&](const std::string &section, const char *key,
                   const std::string &value) {
        os << csvEscape(section) << "," << key << "," << csvEscape(value)
           << "\n";
    };
    for (const auto &l : levels) {
        row(l.level, "sets", std::to_string(l.sets));
        row(l.level, "assoc", std::to_string(l.assoc));
        row(l.level, "line", std::to_string(l.lineSize));
        row(l.level, "slices", std::to_string(l.slices));
        row(l.level, "size_kb", exactDouble(l.sizeKb));
        row(l.level, "latency", exactDouble(l.loadLatency));
        row(l.level, "deterministic",
            l.policyDeterministic ? "1" : "0");
        row(l.level, "policies", joinPolicies(l.policyMatches));
        if (!l.error.empty())
            row(l.level, "error", l.error);
    }
    row("tlb", "measured", tlb.measured ? "1" : "0");
    row("tlb", "dtlb_entries", std::to_string(tlb.dtlbEntries));
    row("tlb", "stlb_entries", std::to_string(tlb.stlbEntries));
    row("tlb", "stlb_penalty", exactDouble(tlb.stlbPenalty));
    row("tlb", "walk_penalty", exactDouble(tlb.walkPenalty));
    if (!tlb.error.empty())
        row("tlb", "error", tlb.error);
    row("dueling", "scanned", dueling.scanned ? "1" : "0");
    row("dueling", "policy_a", dueling.policyA);
    row("dueling", "policy_b", dueling.policyB);
    for (const auto &r : dueling.ranges) {
        row("dueling", "range",
            std::to_string(r.slice) + " " + std::to_string(r.setLo) +
                " " + std::to_string(r.setHi) + " " + r.role);
    }
    if (!dueling.error.empty())
        row("dueling", "error", dueling.error);
    return os.str();
}

MachineProfile
MachineProfile::fromCsv(const std::string &text)
{
    MachineProfile profile;
    bool seen_header = false;
    std::size_t line_no = 0;
    auto parse_count = [&](const std::string &v) {
        auto parsed = parseInt(v);
        if (!parsed || *parsed < 0)
            fatal("CSV profile line ", line_no, ": bad count '", v, "'");
        return static_cast<unsigned>(*parsed);
    };
    auto parse_double = [&](const std::string &v) {
        try {
            return std::stod(v);
        } catch (const std::exception &) {
            fatal("CSV profile line ", line_no, ": bad number '", v,
                  "'");
        }
    };
    for (const auto &raw_line : split(text, '\n')) {
        ++line_no;
        std::string line = trim(raw_line);
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::string meta = trim(line.substr(1));
            auto colon = meta.find(':');
            if (colon == std::string::npos)
                continue;
            std::string key = trim(meta.substr(0, colon));
            std::string value = trim(meta.substr(colon + 1));
            if (key == "uarch")
                profile.uarch = value;
            else if (key == "mode")
                profile.mode = value;
            continue;
        }
        if (!seen_header) {
            if (line != kCsvHeader)
                fatal("CSV profile line ", line_no, ": expected header '",
                      kCsvHeader, "', got '", line, "'");
            seen_header = true;
            continue;
        }
        auto fields = splitCsvRecord(raw_line);
        if (fields.size() != 3) {
            fatal("CSV profile line ", line_no,
                  ": expected 3 fields, got ", fields.size());
        }
        std::string section = csvUnescape(fields[0]);
        std::string key = csvUnescape(fields[1]);
        std::string value = csvUnescape(fields[2]);
        if (section == "tlb") {
            if (key == "measured")
                profile.tlb.measured = value == "1";
            else if (key == "dtlb_entries")
                profile.tlb.dtlbEntries = parse_count(value);
            else if (key == "stlb_entries")
                profile.tlb.stlbEntries = parse_count(value);
            else if (key == "stlb_penalty")
                profile.tlb.stlbPenalty = parse_double(value);
            else if (key == "walk_penalty")
                profile.tlb.walkPenalty = parse_double(value);
            else if (key == "error")
                profile.tlb.error = value;
            continue;
        }
        if (section == "dueling") {
            if (key == "scanned") {
                profile.dueling.scanned = value == "1";
            } else if (key == "policy_a") {
                profile.dueling.policyA = value;
            } else if (key == "policy_b") {
                profile.dueling.policyB = value;
            } else if (key == "error") {
                profile.dueling.error = value;
            } else if (key == "range") {
                auto parts = splitWhitespace(value);
                if (parts.size() != 4)
                    fatal("CSV profile line ", line_no,
                          ": malformed range '", value, "'");
                LeaderRangeProfile range;
                range.slice = parse_count(parts[0]);
                range.setLo = parse_count(parts[1]);
                range.setHi = parse_count(parts[2]);
                range.role = parts[3];
                profile.dueling.ranges.push_back(std::move(range));
            }
            continue;
        }
        // Anything else is a cache level, created on first mention.
        CacheLevelProfile *level = nullptr;
        for (auto &l : profile.levels) {
            if (l.level == section)
                level = &l;
        }
        if (!level) {
            CacheLevelProfile fresh;
            fresh.level = section;
            profile.levels.push_back(std::move(fresh));
            level = &profile.levels.back();
        }
        if (key == "sets")
            level->sets = parse_count(value);
        else if (key == "assoc")
            level->assoc = parse_count(value);
        else if (key == "line")
            level->lineSize = parse_count(value);
        else if (key == "slices")
            level->slices = parse_count(value);
        else if (key == "size_kb")
            level->sizeKb = parse_double(value);
        else if (key == "latency")
            level->loadLatency = parse_double(value);
        else if (key == "deterministic")
            level->policyDeterministic = value == "1";
        else if (key == "policies")
            level->policyMatches = splitPolicies(value);
        else if (key == "error")
            level->error = value;
    }
    if (!seen_header)
        fatal("CSV profile: missing header '", kCsvHeader, "'");
    return profile;
}

MachineProfile
MachineProfile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open profile file '", path, "'");
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    // JSON profiles start with '{'; everything else parses as CSV.
    auto start = text.find_first_not_of(" \t\r\n");
    if (start != std::string::npos && text[start] == '{')
        return fromJson(text);
    return fromCsv(text);
}

// --------------------------------------------------------------- diff --

std::string
ProfileDiff::format() const
{
    std::ostringstream os;
    for (const auto &entry : entries)
        os << entry.section << ": " << entry.detail << "\n";
    return os.str();
}

namespace
{

void
diffLevel(ProfileDiff &diff, const CacheLevelProfile &a,
          const CacheLevelProfile &b, double tolerance)
{
    using Kind = ProfileDiffEntry::Kind;
    auto add = [&](Kind kind, const std::string &detail) {
        diff.entries.push_back({kind, a.level, detail});
    };
    // Status first: a level that did not measure on one side would
    // otherwise report meaningless numeric changes.
    if (a.ok() != b.ok()) {
        add(Kind::StatusChanged, std::string(a.ok() ? "measured"
                                                    : "error") +
                                     " -> " +
                                     (b.ok() ? "measured" : "error"));
        return;
    }
    if (!a.ok())
        return;
    auto geometry = [&](const char *what, unsigned va, unsigned vb) {
        if (va != vb) {
            add(Kind::GeometryChanged,
                std::string(what) + " " + std::to_string(va) + " -> " +
                    std::to_string(vb));
        }
    };
    geometry("sets", a.sets, b.sets);
    geometry("assoc", a.assoc, b.assoc);
    geometry("line", a.lineSize, b.lineSize);
    geometry("slices", a.slices, b.slices);
    if (a.sizeKb != b.sizeKb) {
        add(Kind::GeometryChanged, "size " + exactDouble(a.sizeKb) +
                                       " KiB -> " +
                                       exactDouble(b.sizeKb) + " KiB");
    }
    if (std::abs(a.loadLatency - b.loadLatency) > tolerance) {
        add(Kind::LatencyChanged, "latency " + fixed2(a.loadLatency) +
                                      " -> " + fixed2(b.loadLatency));
    }
    if (a.policyDeterministic != b.policyDeterministic ||
        a.policyMatches != b.policyMatches) {
        add(Kind::PolicyChanged,
            "policy " + policyVerdict(a) + " -> " + policyVerdict(b));
    }
}

} // namespace

ProfileDiff
diffProfiles(const MachineProfile &before, const MachineProfile &after,
             double tolerance)
{
    using Kind = ProfileDiffEntry::Kind;
    ProfileDiff diff;

    for (const auto &a : before.levels) {
        const CacheLevelProfile *b = after.find(a.level);
        if (!b) {
            diff.entries.push_back(
                {Kind::Removed, a.level,
                 "only in " + before.uarch + "/" + before.mode +
                     " profile"});
            continue;
        }
        diffLevel(diff, a, *b, tolerance);
    }
    for (const auto &b : after.levels) {
        if (!before.find(b.level)) {
            diff.entries.push_back({Kind::Added, b.level,
                                    "only in " + after.uarch + "/" +
                                        after.mode + " profile"});
        }
    }

    // TLB.
    const TlbProfile &ta = before.tlb;
    const TlbProfile &tb = after.tlb;
    if (ta.measured != tb.measured || ta.ok() != tb.ok()) {
        auto state = [](const TlbProfile &t) {
            return !t.measured ? std::string("unmeasured")
                               : (t.ok() ? "measured" : "error");
        };
        diff.entries.push_back(
            {Kind::StatusChanged, "tlb", state(ta) + " -> " + state(tb)});
    } else if (ta.measured && ta.ok()) {
        auto tlb_field = [&](const char *what, double va, double vb,
                             bool exact) {
            bool moved = exact ? va != vb
                               : std::abs(va - vb) > tolerance;
            if (moved) {
                diff.entries.push_back(
                    {Kind::TlbChanged, "tlb",
                     std::string(what) + " " + exactDouble(va) + " -> " +
                         exactDouble(vb)});
            }
        };
        tlb_field("dtlb_entries", ta.dtlbEntries, tb.dtlbEntries, true);
        tlb_field("stlb_entries", ta.stlbEntries, tb.stlbEntries, true);
        tlb_field("stlb_penalty", ta.stlbPenalty, tb.stlbPenalty,
                  false);
        tlb_field("walk_penalty", ta.walkPenalty, tb.walkPenalty,
                  false);
    }

    // Dueling.
    const DuelingProfile &da = before.dueling;
    const DuelingProfile &db = after.dueling;
    if (da.scanned != db.scanned || da.ok() != db.ok()) {
        auto state = [](const DuelingProfile &d) {
            return !d.scanned ? std::string("unscanned")
                              : (d.ok() ? "scanned" : "error");
        };
        diff.entries.push_back(
            {Kind::StatusChanged, "dueling",
             state(da) + " -> " + state(db)});
    } else if (da.scanned && da.ok()) {
        if (da.policyA != db.policyA || da.policyB != db.policyB) {
            diff.entries.push_back(
                {Kind::DuelingChanged, "dueling",
                 "duel " + da.policyA + "/" + da.policyB + " -> " +
                     db.policyA + "/" + db.policyB});
        }
        auto sorted = [](std::vector<LeaderRangeProfile> ranges) {
            std::sort(ranges.begin(), ranges.end(),
                      [](const LeaderRangeProfile &x,
                         const LeaderRangeProfile &y) {
                          return std::tie(x.slice, x.setLo, x.setHi,
                                          x.role) <
                                 std::tie(y.slice, y.setLo, y.setHi,
                                          y.role);
                      });
            return ranges;
        };
        auto ra = sorted(da.ranges);
        auto rb = sorted(db.ranges);
        if (ra != rb) {
            auto render = [](const std::vector<LeaderRangeProfile> &rs) {
                std::string out;
                for (const auto &r : rs) {
                    if (!out.empty())
                        out += " ";
                    out += std::to_string(r.slice) + ":" +
                           std::to_string(r.setLo) + "-" +
                           std::to_string(r.setHi) + ":" + r.role;
                }
                return out.empty() ? std::string("none") : out;
            };
            diff.entries.push_back({Kind::DuelingChanged, "dueling",
                                    "ranges " + render(ra) + " -> " +
                                        render(rb)});
        }
    }
    return diff;
}

} // namespace nb::profile
