/**
 * @file
 * Instruction-table implementation: campaign-backed builder,
 * JSON/CSV round-trip, and table diffing.
 */

#include "table.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/strings.hh"
#include "core/json.hh"
#include "core/result.hh"

namespace nb::uops
{

using core::csvEscape;
using core::exactDouble;
using core::jsonEscape;
using core::JsonCursor;

// -------------------------------------------------------------- table --

const VariantResult *
InstructionTable::find(const std::string &signature) const
{
    for (const auto &row : rows) {
        if (row.signature == signature)
            return &row;
    }
    return nullptr;
}

std::size_t
InstructionTable::errorCount() const
{
    std::size_t count = 0;
    for (const auto &row : rows)
        count += row.ok() ? 0 : 1;
    return count;
}

std::string
InstructionTable::format() const
{
    std::ostringstream os;
    os << "Instruction table: " << uarch << ", " << mode << " mode, "
       << rows.size() << " variants\n";
    os << Characterizer::tableHeader() << "\n";
    os << std::string(70, '-') << "\n";
    for (const auto &row : rows)
        os << row.tableRow() << "\n";
    return os.str();
}

namespace
{

/** Ports map as exact-round-trip text, e.g. "0:0.25 1:0.25". */
std::string
portsField(const std::map<unsigned, double> &ports)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[port, usage] : ports) {
        if (!first)
            os << " ";
        os << port << ":" << exactDouble(usage);
        first = false;
    }
    return os.str();
}

std::map<unsigned, double>
parsePortsField(const std::string &text, const char *what)
{
    std::map<unsigned, double> ports;
    for (const auto &item : splitWhitespace(text)) {
        auto colon = item.find(':');
        auto port = colon == std::string::npos
                        ? std::nullopt
                        : parseInt(item.substr(0, colon));
        if (!port || *port < 0)
            fatal(what, ": malformed ports field '", text, "'");
        try {
            ports[static_cast<unsigned>(*port)] =
                std::stod(item.substr(colon + 1));
        } catch (const std::exception &) {
            fatal(what, ": malformed ports field '", text, "'");
        }
    }
    return ports;
}

} // namespace

std::string
InstructionTable::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"uarch\": \"" << jsonEscape(uarch) << "\",\n";
    os << "  \"mode\": \"" << jsonEscape(mode) << "\",\n";
    os << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const VariantResult &row = rows[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"signature\": \"" << jsonEscape(row.signature)
           << "\", \"asm\": \"" << jsonEscape(row.asmText) << "\"";
        // The cursor has no null literal: absent optionals are simply
        // omitted (the reader treats missing keys as unset).
        if (row.latency)
            os << ", \"latency\": " << exactDouble(*row.latency);
        os << ", \"throughput\": " << exactDouble(row.throughput);
        os << ", \"uops\": " << exactDouble(row.uops);
        os << ", \"ports\": \"" << jsonEscape(portsField(row.portUsage))
           << "\"";
        if (row.requiresKernelMode)
            os << ", \"requires_kernel_mode\": 1";
        if (!row.error.empty())
            os << ", \"error\": \"" << jsonEscape(row.error) << "\"";
        os << "}";
    }
    os << (rows.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

std::string
InstructionTable::toCsv() const
{
    std::ostringstream os;
    os << "# uarch: " << uarch << "\n";
    os << "# mode: " << mode << "\n";
    os << "signature,asm,latency,throughput,uops,ports,"
          "requires_kernel_mode,error\n";
    for (const auto &row : rows) {
        os << csvEscape(row.signature) << "," << csvEscape(row.asmText)
           << "," << (row.latency ? exactDouble(*row.latency) : "")
           << "," << exactDouble(row.throughput) << ","
           << exactDouble(row.uops) << ","
           << csvEscape(portsField(row.portUsage)) << ","
           << (row.requiresKernelMode ? "1" : "0") << ","
           << csvEscape(row.error) << "\n";
    }
    return os.str();
}

namespace
{

VariantResult
parseJsonRow(JsonCursor &cur)
{
    VariantResult row;
    cur.expect('{');
    do {
        std::string key = cur.parseString();
        cur.expect(':');
        if (key == "signature")
            row.signature = cur.parseString();
        else if (key == "asm")
            row.asmText = cur.parseString();
        else if (key == "latency")
            row.latency = cur.parseNumber();
        else if (key == "throughput")
            row.throughput = cur.parseNumber();
        else if (key == "uops")
            row.uops = cur.parseNumber();
        else if (key == "ports")
            row.portUsage =
                parsePortsField(cur.parseString(), "JSON table");
        else if (key == "requires_kernel_mode")
            row.requiresKernelMode = cur.parseNumber() != 0.0;
        else if (key == "error")
            row.error = cur.parseString();
        else
            cur.skipValue();
    } while (cur.tryConsume(','));
    cur.expect('}');
    return row;
}

} // namespace

InstructionTable
InstructionTable::fromJson(const std::string &text)
{
    InstructionTable table;
    JsonCursor cur(text);
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "uarch") {
                table.uarch = cur.parseString();
            } else if (key == "mode") {
                table.mode = cur.parseString();
            } else if (key == "rows") {
                cur.expect('[');
                if (!cur.tryConsume(']')) {
                    do {
                        table.rows.push_back(parseJsonRow(cur));
                    } while (cur.tryConsume(','));
                    cur.expect(']');
                }
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    return table;
}

InstructionTable
InstructionTable::fromCsv(const std::string &text)
{
    InstructionTable table;
    bool seen_header = false;
    std::size_t line_no = 0;
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
                table.uarch = value;
            else if (key == "mode")
                table.mode = value;
            continue;
        }
        if (!seen_header) {
            seen_header = true;
            continue;
        }
        auto fields = core::splitCsvRecord(raw_line);
        if (fields.size() != 8) {
            fatal("CSV table line ", line_no, ": expected 8 fields, got ",
                  fields.size());
        }
        VariantResult row;
        row.signature = core::csvUnescape(fields[0]);
        row.asmText = core::csvUnescape(fields[1]);
        try {
            if (!fields[2].empty())
                row.latency = std::stod(fields[2]);
            row.throughput = std::stod(fields[3]);
            row.uops = std::stod(fields[4]);
        } catch (const std::exception &) {
            fatal("CSV table line ", line_no, ": bad numeric field");
        }
        row.portUsage = parsePortsField(fields[5], "CSV table");
        row.requiresKernelMode = fields[6] == "1";
        row.error = core::csvUnescape(fields[7]);
        table.rows.push_back(std::move(row));
    }
    return table;
}

InstructionTable
InstructionTable::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open table file '", path, "'");
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    // JSON tables start with '{'; everything else parses as CSV.
    auto start = text.find_first_not_of(" \t\r\n");
    if (start != std::string::npos && text[start] == '{')
        return fromJson(text);
    return fromCsv(text);
}

// --------------------------------------------------------------- diff --

namespace
{

std::string
fixed2(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << v;
    return os.str();
}

std::string
optLatency(const std::optional<double> &latency)
{
    return latency ? fixed2(*latency) : "-";
}

} // namespace

std::string
TableDiff::format() const
{
    std::ostringstream os;
    for (const auto &entry : entries)
        os << entry.signature << ": " << entry.detail << "\n";
    return os.str();
}

TableDiff
diffTables(const InstructionTable &before, const InstructionTable &after,
           double tolerance)
{
    TableDiff diff;
    auto moved = [&](double a, double b) {
        return std::abs(a - b) > tolerance;
    };

    // Signatures can legitimately repeat (e.g. the fast and slow LEA
    // forms both print LEA_R64_M64): match the k-th occurrence of a
    // signature in one table with the k-th in the other.
    std::map<std::string, std::vector<const VariantResult *>> in_after;
    for (const auto &row : after.rows)
        in_after[row.signature].push_back(&row);
    std::map<std::string, std::size_t> seen;

    for (const auto &row : before.rows) {
        std::size_t k = seen[row.signature]++;
        auto it = in_after.find(row.signature);
        const VariantResult *other =
            it != in_after.end() && k < it->second.size()
                ? it->second[k]
                : nullptr;
        if (!other) {
            diff.entries.push_back({TableDiffEntry::Kind::Removed,
                                    row.signature,
                                    "only in " + before.uarch + "/" +
                                        before.mode + " table"});
            continue;
        }
        // Status first: rows that did not measure on one side would
        // otherwise report meaningless numeric changes.
        if (row.requiresKernelMode != other->requiresKernelMode ||
            row.ok() != other->ok()) {
            std::string from =
                !row.ok() ? "error"
                          : (row.requiresKernelMode ? "kernel-only"
                                                    : "measured");
            std::string to =
                !other->ok() ? "error"
                             : (other->requiresKernelMode ? "kernel-only"
                                                          : "measured");
            diff.entries.push_back({TableDiffEntry::Kind::StatusChanged,
                                    row.signature, from + " -> " + to});
            continue;
        }
        if (row.requiresKernelMode || !row.ok())
            continue;
        if (row.latency.has_value() != other->latency.has_value() ||
            (row.latency && moved(*row.latency, *other->latency))) {
            diff.entries.push_back(
                {TableDiffEntry::Kind::LatencyChanged, row.signature,
                 "latency " + optLatency(row.latency) + " -> " +
                     optLatency(other->latency)});
        }
        if (moved(row.throughput, other->throughput)) {
            diff.entries.push_back(
                {TableDiffEntry::Kind::ThroughputChanged, row.signature,
                 "throughput " + fixed2(row.throughput) + " -> " +
                     fixed2(other->throughput)});
        }
        if (moved(row.uops, other->uops)) {
            diff.entries.push_back(
                {TableDiffEntry::Kind::UopsChanged, row.signature,
                 "uops " + fixed2(row.uops) + " -> " +
                     fixed2(other->uops)});
        }
        // Ports: union of the two port sets, any usage moving beyond
        // tolerance (including appearing/disappearing ports).
        std::map<unsigned, double> all = row.portUsage;
        all.insert(other->portUsage.begin(), other->portUsage.end());
        for (const auto &[port, unused] : all) {
            auto a = row.portUsage.find(port);
            auto b = other->portUsage.find(port);
            double va = a == row.portUsage.end() ? 0.0 : a->second;
            double vb = b == other->portUsage.end() ? 0.0 : b->second;
            if (moved(va, vb)) {
                diff.entries.push_back(
                    {TableDiffEntry::Kind::PortsChanged, row.signature,
                     "p" + std::to_string(port) + " " + fixed2(va) +
                         " -> " + fixed2(vb)});
            }
        }
    }
    std::map<std::string, std::size_t> in_before;
    for (const auto &row : before.rows)
        ++in_before[row.signature];
    seen.clear();
    for (const auto &row : after.rows) {
        if (seen[row.signature]++ >= in_before[row.signature]) {
            diff.entries.push_back({TableDiffEntry::Kind::Added,
                                    row.signature,
                                    "only in " + after.uarch + "/" +
                                        after.mode + " table"});
        }
    }
    return diff;
}

// ------------------------------------------------------------ builder --

TableBuild
buildInstructionTable(Engine &engine, const TableBuildOptions &options)
{
    // One session up front: planning reads the machine's uarch/PMU
    // capabilities. The campaign workers build their own machines.
    Session session = engine.session(options.session);
    Characterizer tool(session);
    CharacterizationPlan plan = tool.plan();

    CampaignOptions campaign_opt;
    campaign_opt.jobs = options.jobs;
    campaign_opt.dedup = options.dedup;
    campaign_opt.session = options.session;
    if (options.progress) {
        // The table's coarse (done, total) callback maps onto the
        // settle events of the richer campaign progress stream.
        campaign_opt.progress =
            [cb = options.progress](const CampaignProgress &event) {
                if (!event.starting)
                    cb(event.done, event.total);
            };
    }
    campaign_opt.trace = options.trace;
    campaign_opt.observe = options.observe;
    // A runaway planner spec settles as BudgetExceeded instead of
    // hanging table generation (outcomes for sane specs, and thus the
    // golden tables, are unaffected).
    campaign_opt.specBudget = kBuilderSpecBudget;
    CampaignResult campaign =
        engine.runCampaign(Characterizer::planSpecs(plan), campaign_opt);

    TableBuild build;
    build.table.uarch = session.uarch();
    build.table.mode = core::modeName(session.mode());
    build.table.rows = Characterizer::decode(plan, campaign.outcomes);
    build.report = std::move(campaign.report);
    return build;
}

} // namespace nb::uops
