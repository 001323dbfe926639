/**
 * @file
 * BenchmarkResult lookups and (de)serialization.
 *
 * The JSON reader is the shared minimal cursor from json.hh; the CSV
 * escaping helpers here are exported so other writers (the campaign
 * report) emit the same dialect.
 */

#include "result.hh"

#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

#include "core/json.hh"

namespace nb::core
{

std::string
exactDouble(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

std::string
fixed2(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << v;
    return os.str();
}

std::string
shortDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream os;
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(c);
                out += os.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/** Backslash-escape newlines (CSV is parsed line-wise, so embedded
 *  newlines in names or metadata would break records). */
std::string
escapeNewlines(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unescapeNewlines(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        switch (s[++i]) {
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          default: out += '\\'; out += s[i];
        }
    }
    return out;
}

} // namespace

std::string
csvEscape(const std::string &raw)
{
    std::string s = escapeNewlines(raw);
    if (s.find_first_of(",\"") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        out += c;
        if (c == '"')
            out += '"';
    }
    out += '"';
    return out;
}

namespace
{

ResultLine
parseJsonLine(JsonCursor &cur)
{
    ResultLine line;
    cur.expect('{');
    do {
        std::string key = cur.parseString();
        cur.expect(':');
        if (key == "name")
            line.name = cur.parseString();
        else if (key == "value")
            line.value = cur.parseNumber();
        else
            cur.skipValue();
    } while (cur.tryConsume(','));
    cur.expect('}');
    return line;
}

} // namespace

std::vector<std::string>
splitCsvRecord(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                field += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(field);
            field.clear();
        } else {
            field += c;
        }
    }
    fields.push_back(field);
    return fields;
}

std::string
csvUnescape(const std::string &field)
{
    return unescapeNewlines(field);
}

std::optional<double>
BenchmarkResult::find(const std::string &name) const
{
    for (const auto &line : lines) {
        if (line.name == name)
            return line.value;
    }
    return std::nullopt;
}

double
BenchmarkResult::operator[](const std::string &name) const
{
    if (auto value = find(name))
        return *value;
    throw ResultLookupError(name);
}

bool
BenchmarkResult::has(const std::string &name) const
{
    return find(name).has_value();
}

std::string
BenchmarkResult::format() const
{
    std::ostringstream os;
    for (const auto &line : lines) {
        os << line.name << ": " << std::fixed << std::setprecision(2)
           << line.value << "\n";
    }
    return os.str();
}

std::string
BenchmarkResult::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"uarch\": \"" << jsonEscape(uarch) << "\",\n";
    os << "  \"mode\": \"" << jsonEscape(mode) << "\",\n";
    os << "  \"spec\": \"" << jsonEscape(specEcho) << "\",\n";
    os << "  \"last_run_cycles\": " << lastRunCycles << ",\n";
    os << "  \"lines\": [";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << jsonEscape(lines[i].name)
           << "\", \"value\": " << exactDouble(lines[i].value) << "}";
    }
    os << (lines.empty() ? "]\n" : "\n  ]\n");
    os << "}\n";
    return os.str();
}

std::string
BenchmarkResult::toCsv() const
{
    std::ostringstream os;
    os << "# uarch: " << escapeNewlines(uarch) << "\n";
    os << "# mode: " << escapeNewlines(mode) << "\n";
    os << "# spec: " << escapeNewlines(specEcho) << "\n";
    os << "# last_run_cycles: " << lastRunCycles << "\n";
    os << "name,value\n";
    for (const auto &line : lines)
        os << csvEscape(line.name) << "," << exactDouble(line.value)
           << "\n";
    return os.str();
}

BenchmarkResult
BenchmarkResult::fromJson(const std::string &text)
{
    BenchmarkResult result;
    JsonCursor cur(text);
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "uarch") {
                result.uarch = cur.parseString();
            } else if (key == "mode") {
                result.mode = cur.parseString();
            } else if (key == "spec") {
                result.specEcho = cur.parseString();
            } else if (key == "last_run_cycles") {
                result.lastRunCycles =
                    static_cast<Cycles>(cur.parseNumber());
            } else if (key == "lines") {
                cur.expect('[');
                if (!cur.tryConsume(']')) {
                    do {
                        result.lines.push_back(parseJsonLine(cur));
                    } while (cur.tryConsume(','));
                    cur.expect(']');
                }
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    // Concatenated documents would otherwise be silently truncated to
    // the first object.
    cur.expectEnd();
    return result;
}

} // namespace nb::core
