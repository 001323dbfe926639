/**
 * @file
 * Structured benchmark results.
 *
 * A BenchmarkResult is the machine-consumable output of one benchmark
 * run: the per-iteration counter values (one ResultLine per event, in
 * the paper's §III-A output order) plus metadata identifying where the
 * numbers came from (microarchitecture, runner mode, a compact echo of
 * the spec, and the simulated cost of producing them). Results can be
 * rendered for humans (format()), serialized to JSON or CSV, and parsed
 * back from either format.
 */

#ifndef NB_CORE_RESULT_HH
#define NB_CORE_RESULT_HH

#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace nb::core
{

/** One output line: event name and per-iteration value. */
struct ResultLine
{
    std::string name;
    double value = 0.0;
};

/** Thrown by BenchmarkResult::operator[] for a missing line. Derives
 *  from FatalError so existing catch sites keep working; unlike
 *  fatal(), it does not print to stderr before unwinding. */
class ResultLookupError : public FatalError
{
  public:
    explicit ResultLookupError(const std::string &name)
        : FatalError("no result line named '" + name + "'"), name_(name)
    {
    }

    /** The line name that was looked up. */
    const std::string &missingName() const { return name_; }

  private:
    std::string name_;
};

/** Benchmark output. */
struct BenchmarkResult
{
    std::vector<ResultLine> lines;

    /** Microarchitecture the benchmark ran on (e.g. "Skylake"). */
    std::string uarch;
    /** Runner mode: "kernel" or "user" (§III-D). */
    std::string mode;
    /** Compact echo of the BenchmarkSpec that produced this result. */
    std::string specEcho;
    /** Simulated cycles the whole run() took (§III-K). */
    Cycles lastRunCycles = 0;

    /** Value of a line by name, or std::nullopt if absent. */
    std::optional<double> find(const std::string &name) const;

    /** Value of a line by name; @throws ResultLookupError if absent. */
    double operator[](const std::string &name) const;

    bool has(const std::string &name) const;

    /** Render like the paper's §III-A example output. */
    std::string format() const;

    /** Serialize to a self-contained JSON object. */
    std::string toJson() const;

    /** Serialize to CSV ("name,value" rows; metadata in '#' header
     *  comments). */
    std::string toCsv() const;

    /** Parse a result back from toJson() output.
     *  @throws nb::FatalError on malformed input. */
    static BenchmarkResult fromJson(const std::string &text);
};

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** CSV field escaping in this library's dialect: newlines are
 *  backslash-escaped (records stay line-wise), then fields containing
 *  commas or quotes are double-quoted. */
std::string csvEscape(const std::string &raw);

/** Split one CSV record into fields, honouring the double-quote
 *  escaping csvEscape() produces (shared by the table reader). */
std::vector<std::string> splitCsvRecord(const std::string &line);

/** Undo csvEscape()'s backslash-escaping of newlines in a field
 *  already unquoted by splitCsvRecord(). */
std::string csvUnescape(const std::string &field);

/** Format a double with enough digits to round-trip exactly. */
std::string exactDouble(double v);

/** Format a double with two decimals ("0.25"), as report text shows
 *  cycles and µop counts. */
std::string fixed2(double v);

/** Format a double as "%.4g" ("0.25", "1.333"), as bounds are shown. */
std::string shortDouble(double v);

} // namespace nb::core

#endif // NB_CORE_RESULT_HH
