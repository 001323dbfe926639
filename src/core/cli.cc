/**
 * @file
 * Command-line front end: the equivalent of nanoBench.sh and
 * kernel-nanoBench.sh (paper §III-E), built on the Engine / Session
 * API. Example:
 *
 *   nanobench -asm "mov R14, [R14]" -asm_init "mov [R14], R14" \
 *             -config configs/cfg_Skylake.txt -uarch Skylake -kernel
 *
 * Repeating -asm (or -code) queues several benchmarks; they run as one
 * campaign, each on a machine reset to the same starting state, and a
 * failing spec reports an error without aborting the rest.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/bound.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "core/campaign.hh"
#include "core/engine.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "obs/observe.hh"
#include "obs/trace.hh"
#include "uarch/uarch.hh"
#include "profile/build.hh"
#include "uops/table.hh"
#include "x86/encoding.hh"

namespace
{

using namespace nb;
using namespace nb::core;

enum class OutputFormat : std::uint8_t
{
    Text,
    Json,
    Csv,
};

void
printUsage()
{
    // The parameter defaults below are the BenchmarkSpec defaults
    // (asserted in tests/test_engine.cc).
    std::cout <<
        "nanoBench (simulated) -- run microbenchmarks with performance "
        "counters\n\n"
        "usage: nanobench [options]\n"
        "  -asm <code>          benchmark body (Intel syntax); may be\n"
        "                       repeated to run a batch (every spec\n"
        "                       starts from the same machine state)\n"
        "  -asm_init <code>     initialization code (not measured)\n"
        "  -code <file>         benchmark body from an encoded binary\n"
        "  -spec_file <file>    queue one -asm style benchmark per line\n"
        "                       (a line starting with '-' carries\n"
        "                       per-line options, e.g. -asm \"..\" -agg\n"
        "                       min; malformed lines report their line\n"
        "                       number as per-spec errors)\n"
        "  -jobs <n>            campaign worker threads (default 1;\n"
        "                       0 = one per hardware thread)\n"
        "  -characterize        characterize the full instruction-\n"
        "                       variant catalog (§V, uops.info-style)\n"
        "                       through the campaign executor and print\n"
        "                       the table\n"
        "  -table <file>        with -characterize: also write the\n"
        "                       table there (JSON, or CSV with -csv);\n"
        "                       alone: load and print a table file\n"
        "  -table_diff <a> <b>  diff two table files (exit 1 when rows\n"
        "                       changed)\n"
        "  -profile <file>      measure a full machine profile (cache\n"
        "                       geometry/latency/policies, TLB, set-\n"
        "                       dueling leaders, \u00a7VI) through one\n"
        "                       campaign and write it there (JSON, or\n"
        "                       CSV with -csv)\n"
        "  -profile_diff <a> <b>  diff two profile files (exit 1 when\n"
        "                       sections changed)\n"
        "  -no_dedup            run duplicate specs instead of sharing\n"
        "                       one cached result\n"
        "  -report <file>       write the campaign report (JSON, or CSV\n"
        "                       with -csv) to a file ('-' = stderr)\n"
        "  -cycle_budget <n>    abort any single run after n simulated\n"
        "                       cycles with a budget-exceeded error\n"
        "                       (default 0 = unlimited); applies to\n"
        "                       every queued spec, incl. spec-file\n"
        "                       lines\n"
        "  -max_retries <n>     retry a spec whose failure is marked\n"
        "                       transient up to n times with backoff\n"
        "                       (default 0; benchmark runs only)\n"
        "  -checkpoint <file>   journal every settled spec to a file;\n"
        "                       an interrupted run (kill, Ctrl-C) can\n"
        "                       continue with -resume (runs only)\n"
        "  -resume <file>       skip specs already settled in a\n"
        "                       checkpoint journal (same uarch/mode;\n"
        "                       benchmark runs only)\n"
        "  -fault <plan>        inject deterministic faults at named\n"
        "                       sites, e.g. 'assemble:transient:x1' or\n"
        "                       'execute@10000,seed:7' (sites:\n"
        "                       assemble, decode, execute,\n"
        "                       worker-pickup, report-write; also read\n"
        "                       from the NB_FAULT env var; see README\n"
        "                       \"Resilience\")\n"
        "  -progress            print campaign progress to stderr\n"
        "  -config <file>       performance-counter config file\n"
        "  -uarch <name>        microarchitecture (default Skylake)\n"
        "  -kernel | -user      kernel- or user-space version\n"
        "  -unroll_count <n>    unroll factor (default 100)\n"
        "  -loop_count <n>      loop iterations (default 0 = no loop)\n"
        "  -n_measurements <n>  repetitions (default 10)\n"
        "  -warm_up_count <n>   discarded initial runs (default 2)\n"
        "  -agg <fn>            min | max | med | avg | mean\n"
        "                       (default med)\n"
        "  -basic_mode          compare against localUnrollCount=0\n"
        "  -no_mem              keep counter values in registers\n"
        "  -serialize <mode>    none | cpuid | lfence (default lfence)\n"
        "  -aperf_mperf         also read APERF/MPERF (kernel only)\n"
        "  -lint                statically analyze the queued specs\n"
        "                       instead of running them: print the\n"
        "                       diagnostics (rules R0-R6, see README\n"
        "                       \"Spec linting\"); exit 1 if any spec\n"
        "                       has an error-severity diagnostic\n"
        "  -explain             statically predict each queued spec's\n"
        "                       performance bounds instead of running\n"
        "                       it: bottleneck class, per-port\n"
        "                       utilization, and the critical latency\n"
        "                       cycle (see README \"Static performance\n"
        "                       bounds\"); exit 1 if any spec fails to\n"
        "                       assemble or decode\n"
        "  -lint_level <l>      off | warn | error (default off): fail\n"
        "                       a *measurement* run with a lint-error\n"
        "                       when the analyzer finds diagnostics at\n"
        "                       or above the level\n"
        "  -observe             run each queued spec with an execution\n"
        "                       observer attached and print predicted\n"
        "                       (-explain bounds) vs observed per-port\n"
        "                       pressure side by side; with\n"
        "                       -characterize / -profile, fold the\n"
        "                       campaign's observed totals into the\n"
        "                       -stats registry instead\n"
        "                       (campaign.observed.* counters)\n"
        "  -trace <file>        write a Chrome trace-event JSON file\n"
        "                       (Perfetto) for any verb: campaign and\n"
        "                       per-worker spans, or one span per spec\n"
        "                       for -lint / -explain / -observe\n"
        "  -stats               after any verb, dump the metrics\n"
        "                       registry (engine.* gauges, runner phase\n"
        "                       histograms, process.peak_rss_mb) to\n"
        "                       stderr\n"
        "  -seed <n>            simulation seed\n"
        "  -json | -csv         machine-readable output\n"
        "  -list_uarchs         list supported microarchitectures\n";
}

std::uint64_t
parseCount(const std::string &option, const std::string &value)
{
    auto parsed = nb::parseInt(value);
    if (!parsed || *parsed < 0)
        nb::fatal("bad value '", value, "' for option ", option);
    return static_cast<std::uint64_t>(*parsed);
}

std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        nb::fatal("cannot open ", what, " file '", path, "'");
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Everything the command line sets; verbOf() picks the verb. */
struct Options
{
    SessionOptions session;
    // Shared parameters, applied to every queued benchmark. The
    // defaults are the BenchmarkSpec defaults advertised above.
    BenchmarkSpec shared;
    // One entry per -asm/-code occurrence, in command-line order.
    std::vector<BenchmarkSpec> queued;
    OutputFormat format = OutputFormat::Text;
    unsigned jobs = 1;
    bool dedup = true;
    bool progress = false;
    bool characterize = false;
    bool lint = false;
    bool explain = false;
    bool observe = false;
    bool stats = false;
    std::string tracePath;
    std::string specFile;
    std::string reportPath;
    std::string faultSpec;
    std::string checkpointPath;
    std::string resumePath;
    unsigned maxRetries = 0;
    // The last of -checkpoint / -resume / -max_retries given; they
    // only apply to a benchmark run.
    std::string campaignOnlyFlag;
    std::string tablePath;
    std::string profilePath;
    std::string tableDiffA;
    std::string tableDiffB;
    std::string profileDiffA;
    std::string profileDiffB;
};

/** Parse the command line; std::nullopt once -list_uarchs or --help
 *  has printed its answer. @throws nb::FatalError on a bad option. */
std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options opt;
    // -fault wins over the NB_FAULT environment variable (the CI sweep
    // uses the latter so it needs no command-line surgery).
    if (const char *env = std::getenv("NB_FAULT"))
        opt.faultSpec = env;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for option ", arg);
            return argv[++i];
        };
        if (arg == "-asm") {
            opt.queued.emplace_back().asmCode = next();
        } else if (arg == "-asm_init") {
            opt.shared.asmInit = next();
        } else if (arg == "-code") {
            std::string blob = readFile(next(), "code");
            opt.queued.emplace_back().code = x86::decode(
                std::vector<std::uint8_t>(blob.begin(), blob.end()));
        } else if (arg == "-spec_file") {
            opt.specFile = next();
        } else if (arg == "-jobs") {
            opt.jobs = static_cast<unsigned>(parseCount(arg, next()));
        } else if (arg == "-characterize") {
            opt.characterize = true;
        } else if (arg == "-table") {
            opt.tablePath = next();
        } else if (arg == "-table_diff") {
            opt.tableDiffA = next();
            opt.tableDiffB = next();
        } else if (arg == "-profile") {
            opt.profilePath = next();
        } else if (arg == "-profile_diff") {
            opt.profileDiffA = next();
            opt.profileDiffB = next();
        } else if (arg == "-no_dedup") {
            opt.dedup = false;
        } else if (arg == "-report") {
            opt.reportPath = next();
        } else if (arg == "-cycle_budget") {
            opt.shared.cycleBudget = parseCount(arg, next());
        } else if (arg == "-max_retries") {
            opt.maxRetries = static_cast<unsigned>(parseCount(arg, next()));
            opt.campaignOnlyFlag = arg;
        } else if (arg == "-checkpoint") {
            opt.checkpointPath = next();
            opt.campaignOnlyFlag = arg;
        } else if (arg == "-resume") {
            opt.resumePath = next();
            opt.campaignOnlyFlag = arg;
        } else if (arg == "-fault") {
            opt.faultSpec = next();
        } else if (arg == "-progress") {
            opt.progress = true;
        } else if (arg == "-config") {
            opt.session.configFile = next();
        } else if (arg == "-uarch") {
            opt.session.uarch = next();
        } else if (arg == "-kernel") {
            opt.session.mode = Mode::Kernel;
        } else if (arg == "-user") {
            opt.session.mode = Mode::User;
        } else if (arg == "-unroll_count") {
            opt.shared.unrollCount =
                std::max<std::uint64_t>(1, parseCount(arg, next()));
        } else if (arg == "-loop_count") {
            opt.shared.loopCount = parseCount(arg, next());
        } else if (arg == "-n_measurements") {
            opt.shared.nMeasurements =
                static_cast<unsigned>(parseCount(arg, next()));
        } else if (arg == "-warm_up_count") {
            opt.shared.warmUpCount =
                static_cast<unsigned>(parseCount(arg, next()));
        } else if (arg == "-agg") {
            opt.shared.agg = parseAggregate(next());
        } else if (arg == "-basic_mode") {
            opt.shared.basicMode = true;
        } else if (arg == "-no_mem") {
            opt.shared.noMem = true;
        } else if (arg == "-serialize") {
            opt.shared.serialize = parseSerializeMode(next());
        } else if (arg == "-aperf_mperf") {
            opt.shared.aperfMperf = true;
        } else if (arg == "-lint") {
            opt.lint = true;
        } else if (arg == "-explain") {
            opt.explain = true;
        } else if (arg == "-observe") {
            opt.observe = true;
        } else if (arg == "-trace") {
            opt.tracePath = next();
        } else if (arg == "-stats") {
            opt.stats = true;
        } else if (arg == "-lint_level") {
            std::string value = next();
            auto level = lintLevelFromName(value);
            if (!level) {
                fatal("bad value '", value,
                      "' for option -lint_level (use off, warn, or "
                      "error)");
            }
            opt.shared.lintLevel = *level;
        } else if (arg == "-seed") {
            opt.session.seed = parseCount(arg, next());
        } else if (arg == "-json") {
            opt.format = OutputFormat::Json;
        } else if (arg == "-csv") {
            opt.format = OutputFormat::Csv;
        } else if (arg == "-list_uarchs") {
            for (const auto &name : uarch::allMicroArchNames())
                std::cout << name << "\n";
            return std::nullopt;
        } else if (arg == "-h" || arg == "--help") {
            printUsage();
            return std::nullopt;
        } else {
            fatal("unknown option '", arg, "' (try --help)");
        }
    }
    return opt;
}

/** @p doc in the output format: text, JSON or CSV. */
template <typename Doc>
std::string
render(const Doc &doc, OutputFormat format)
{
    if (format == OutputFormat::Json)
        return doc.toJson();
    if (format == OutputFormat::Csv)
        return doc.toCsv();
    return doc.format();
}

/** @p doc as written to a file: CSV with -csv, JSON otherwise. */
template <typename Doc>
std::string
fileForm(const Doc &doc, OutputFormat format)
{
    return format == OutputFormat::Csv ? doc.toCsv() : doc.toJson();
}

/**
 * Open the -report destination of a campaign verb (-profile,
 * -characterize, benchmark runs) up front, so an unwritable path
 * fails before the campaign, not after it. The returned writer puts
 * the finished report there ('-' = stderr).
 */
std::function<void(const CampaignReport &)>
openReport(const Options &opt)
{
    auto out = std::make_shared<std::ofstream>();
    if (!opt.reportPath.empty() && opt.reportPath != "-") {
        out->open(opt.reportPath);
        if (!*out)
            fatal("cannot write report file '", opt.reportPath, "'");
    }
    return [out, &opt](const CampaignReport &report) {
        if (!opt.reportPath.empty()) {
            (opt.reportPath == "-" ? std::cerr : *out)
                << fileForm(report, opt.format);
        }
    };
}

/** The options the table and profile builders share. */
template <typename BuildOptions>
BuildOptions
builderOptions(const Options &opt, obs::Tracer &tracer, const char *label)
{
    BuildOptions build;
    build.session = opt.session;
    build.jobs = opt.jobs;
    build.dedup = opt.dedup;
    build.trace = &tracer;
    build.observe = opt.observe;
    if (opt.progress) {
        build.progress = [label](std::size_t done, std::size_t total) {
            std::cerr << "\r" << label << ": " << done << "/" << total
                      << (done == total ? "\n" : "");
        };
    }
    return build;
}

int
profileDiffVerb(const Options &opt, Engine &, obs::Tracer &)
{
    auto before = profile::MachineProfile::load(opt.profileDiffA);
    auto after = profile::MachineProfile::load(opt.profileDiffB);
    auto diff = profile::diffProfiles(before, after);
    if (diff.empty()) {
        std::cout << "profiles match (" << before.uarch << "/"
                  << before.mode << ")\n";
        return 0;
    }
    std::cout << diff.format();
    std::cout << diff.entries.size() << " difference(s)\n";
    return 1;
}

int
profileVerb(const Options &opt, Engine &engine, obs::Tracer &tracer)
{
    // Open the output files up front: an unwritable path must fail
    // before the measurement campaign, not after.
    std::ofstream profile_out(opt.profilePath);
    if (!profile_out)
        fatal("cannot write profile file '", opt.profilePath, "'");
    auto write_report = openReport(opt);
    auto build = profile::buildMachineProfile(
        engine,
        builderOptions<profile::ProfileOptions>(opt, tracer, "profile"));
    std::cout << build.profile.format();
    profile_out << fileForm(build.profile, opt.format);
    write_report(build.report);
    return build.profile.complete() ? 0 : 1;
}

int
tableDiffVerb(const Options &opt, Engine &, obs::Tracer &)
{
    auto before = uops::InstructionTable::load(opt.tableDiffA);
    auto after = uops::InstructionTable::load(opt.tableDiffB);
    auto diff = uops::diffTables(before, after);
    if (diff.empty()) {
        std::cout << "tables match (" << before.rows.size()
                  << " rows)\n";
        return 0;
    }
    std::cout << diff.format();
    std::cout << diff.entries.size() << " row(s) differ\n";
    return 1;
}

int
tableLoadVerb(const Options &opt, Engine &, obs::Tracer &)
{
    std::cout << render(uops::InstructionTable::load(opt.tablePath),
                        opt.format);
    return 0;
}

int
characterizeVerb(const Options &opt, Engine &engine, obs::Tracer &tracer)
{
    // Open the output files up front: an unwritable path must fail
    // before the full-catalog campaign, not after.
    std::ofstream table_out;
    if (!opt.tablePath.empty()) {
        table_out.open(opt.tablePath);
        if (!table_out)
            fatal("cannot write table file '", opt.tablePath, "'");
    }
    auto write_report = openReport(opt);
    auto build = uops::buildInstructionTable(
        engine, builderOptions<uops::TableBuildOptions>(opt, tracer,
                                                        "characterize"));
    std::cout << render(build.table, opt.format);
    if (!opt.tablePath.empty())
        table_out << fileForm(build.table, opt.format);
    write_report(build.report);
    return build.table.errorCount() != 0 ? 1 : 0;
}

/**
 * The queued benchmarks, one slot each: the -asm/-code bodies with the
 * shared parameters, then the spec-file lines. A malformed spec-file
 * line's slot carries its error (reported in position, with the line
 * number) instead of anything to run. With nothing queued, print the
 * usage and exit 1.
 */
std::vector<SpecFileEntry>
buildQueue(const Options &opt)
{
    std::vector<SpecFileEntry> queue;
    for (const auto &body : opt.queued) {
        SpecFileEntry entry{.spec = opt.shared, .error = std::nullopt};
        entry.spec.asmCode = body.asmCode;
        entry.spec.code = body.code;
        queue.push_back(std::move(entry));
    }
    if (!opt.specFile.empty()) {
        for (auto &entry : parseSpecLines(readFile(opt.specFile, "spec"),
                                          opt.shared))
            queue.push_back(std::move(entry));
    }
    if (queue.empty()) {
        printUsage();
        throw FatalError("no benchmark queued");
    }
    return queue;
}

/** One spec's output in every format; printBatch() picks one. */
struct SpecDoc
{
    std::string text;
    std::string json;
    std::string csv;
    /** Fails the batch (exit 1) without an error line: a lint
     *  error-severity diagnostic. */
    bool failed = false;
};

/** What a verb supplies for one slot: an error or its document. */
using SlotOutput = std::variant<RunError, SpecDoc>;

/**
 * The batch output contract of every per-spec verb: @p slot is called
 * for each runnable queued spec, in order. -json prints ONE parseable
 * document: a bare object for a single spec, an array with one entry
 * per spec (a {"error": ...} entry in a failed slot's position) for a
 * batch. In a batch, -csv precedes each document by a `# benchmark
 * i/N` line and text by `## <spec>`, and a blank line follows every
 * slot but the last that printed anything. A failed slot prints
 * `<noun> i/N failed (<code>): <message>` to stderr. @return whether
 * any slot failed.
 */
bool
printBatch(OutputFormat format, const char *noun,
           const std::vector<SpecFileEntry> &queue,
           const std::function<SlotOutput(const BenchmarkSpec &)> &slot)
{
    std::size_t n = queue.size();
    bool batch = n > 1;
    bool any_failed = false;
    if (format == OutputFormat::Json && batch)
        std::cout << "[\n";
    for (std::size_t i = 0; i < n; ++i) {
        std::string out;
        if (format == OutputFormat::Csv && batch) {
            out = "# benchmark " + std::to_string(i + 1) + "/" +
                  std::to_string(n) + "\n";
        }
        SlotOutput result = queue[i].error ? SlotOutput(*queue[i].error)
                                           : slot(queue[i].spec);
        if (const auto *error = std::get_if<RunError>(&result)) {
            any_failed = true;
            const char *code = runErrorCodeName(error->code);
            std::cerr << noun << " " << i + 1 << "/" << n << " failed ("
                      << code << "): " << error->message << "\n";
            if (format == OutputFormat::Json) {
                out = std::string("{\"error\": {\"code\": \"") + code +
                      "\", \"message\": \"" +
                      jsonEscape(error->message) + "\"}}";
            }
        } else {
            const auto &doc = std::get<SpecDoc>(result);
            any_failed |= doc.failed;
            switch (format) {
              case OutputFormat::Text:
                if (batch)
                    out = "## " + queue[i].spec.summary() + "\n";
                out += doc.text;
                break;
              case OutputFormat::Json:
                out = doc.json;
                break;
              case OutputFormat::Csv:
                out += doc.csv;
                break;
            }
        }
        bool last = i + 1 == n;
        if (format == OutputFormat::Json) {
            // The document, a comma if another follows, then a newline
            // unless the document ended in one.
            bool newline = out.empty() || out.back() != '\n';
            if (!last)
                out += ",";
            if (newline)
                out += "\n";
        } else if (!last && !out.empty()) {
            out += "\n";
        }
        std::cout << out;
    }
    if (format == OutputFormat::Json && batch)
        std::cout << "]\n";
    return any_failed;
}

/**
 * The shared loop of the static verbs (-lint, -explain, -observe):
 * each queued spec goes through @p analyze in a span on a trace lane
 * named after the verb, and a fatal error (assembly, decode) becomes
 * the spec's assembly-error slot, like on the run path.
 */
int
staticVerb(const Options &opt, const std::vector<SpecFileEntry> &queue,
           obs::Tracer &tracer, const char *verb,
           const std::function<SlotOutput(const BenchmarkSpec &)> &analyze)
{
    tracer.nameLane(0, verb);
    return printBatch(
        opt.format, "spec", queue, [&](const BenchmarkSpec &spec) {
            std::string label = spec.summary();
            // The batch printer reports the error in position; keep
            // fatal()'s courtesy line quiet.
            ScopedFatalMessageSuppression suppress;
            SlotOutput out;
            tracer.begin(0, label);
            try {
                out = analyze(spec);
            } catch (const FatalError &e) {
                out = RunError{RunError::Code::AssemblyError, e.what()};
            }
            tracer.end(0, label);
            return out;
        }) ? 1 : 0;
}

int
lintVerb(const Options &opt, Engine &, obs::Tracer &tracer)
{
    const auto &ua = uarch::getMicroArch(opt.session.uarch);
    analysis::Context ctx;
    ctx.mode = opt.session.mode;
    return staticVerb(
        opt, buildQueue(opt), tracer, "lint",
        [&](const BenchmarkSpec &spec) -> SlotOutput {
            analysis::Report report = analysis::analyzeSpec(ua, spec, ctx);
            return SpecDoc{
                .text = report.empty() ? "clean (no diagnostics)\n"
                                       : report.format(),
                .json = report.toJson(),
                .csv = report.toCsv(),
                .failed = report.count(analysis::Severity::Error) > 0,
            };
        });
}

int
explainVerb(const Options &opt, Engine &, obs::Tracer &tracer)
{
    const auto &ua = uarch::getMicroArch(opt.session.uarch);
    return staticVerb(
        opt, buildQueue(opt), tracer, "explain",
        [&](const BenchmarkSpec &spec) -> SlotOutput {
            analysis::BoundReport report =
                analysis::analyzeBounds(ua, spec);
            return SpecDoc{.text = report.format(),
                           .json = report.toJson(),
                           .csv = report.toCsv()};
        });
}

int
observeVerb(const Options &opt, Engine &, obs::Tracer &tracer)
{
    const auto &ua = uarch::getMicroArch(opt.session.uarch);
    std::vector<SpecFileEntry> queue = buildQueue(opt);
    // Resolve the session-level counter config into each spec, like
    // Session::run would -- observeSpec runs on private machines and
    // bypasses the session layer.
    if (!opt.session.configFile.empty()) {
        CounterConfig session_config =
            CounterConfig::parseFile(opt.session.configFile);
        for (auto &entry : queue) {
            if (entry.spec.config.empty())
                entry.spec.config = session_config;
        }
    }
    // The JSON document nests the two reports under "predicted" /
    // "observed"; both toJson() outputs end in a newline that must not
    // land inside the wrapper.
    auto trimmed = [](std::string text) {
        while (!text.empty() &&
               (text.back() == '\n' || text.back() == ' '))
            text.pop_back();
        return text;
    };
    return staticVerb(
        opt, queue, tracer, "observe",
        [&](const BenchmarkSpec &spec) -> SlotOutput {
            analysis::BoundReport bounds = analysis::analyzeBounds(ua, spec);
            obs::ObservedProfile profile;
            try {
                profile = obs::observeSpec(ua, spec, opt.session.mode,
                                           opt.session.seed);
            } catch (const FatalError &e) {
                return RunError{RunError::Code::ExecutionError, e.what()};
            }
            return SpecDoc{
                .text = obs::formatPredictedVsObserved(bounds, profile),
                .json = "{\"predicted\": " + trimmed(bounds.toJson()) +
                        ",\n \"observed\": " + trimmed(profile.toJson()) +
                        "}",
                .csv = "# predicted\n" + bounds.toCsv() +
                       "# observed\n" + profile.toCsv(),
            };
        });
}

int
runVerb(const Options &opt, Engine &engine, obs::Tracer &tracer)
{
    std::vector<SpecFileEntry> queue = buildQueue(opt);
    std::vector<BenchmarkSpec> runnable;
    for (const auto &entry : queue) {
        if (!entry.error)
            runnable.push_back(entry.spec);
    }

    // Every batch -- one -asm, repeated -asm, or a spec file -- runs
    // as a campaign: each spec on a machine reset to the same starting
    // state, so -jobs 1 and -jobs N print the same results.
    auto write_report = openReport(opt);
    CampaignOptions campaign_opt;
    campaign_opt.jobs = opt.jobs;
    campaign_opt.dedup = opt.dedup;
    campaign_opt.session = opt.session;
    campaign_opt.trace = &tracer;
    campaign_opt.maxRetries = opt.maxRetries;
    campaign_opt.checkpoint = opt.checkpointPath;
    campaign_opt.resume = opt.resumePath;
    // Ctrl-C cancels cooperatively: in-flight specs finish, the
    // checkpoint flushes, and a partial report (with the unexecuted
    // specs settled as "cancelled" errors) is still written below.
    campaign_opt.cancel = std::make_shared<CancelToken>();
    if (opt.progress) {
        campaign_opt.progress = [](const CampaignProgress &event) {
            // Start events name the spec in flight so a stalled
            // campaign is attributable.
            std::cerr << "\rcampaign: " << event.done << "/"
                      << event.total;
            if (event.starting)
                std::cerr << " [" << event.specLabel << "]";
            else if (event.done == event.total)
                std::cerr << "\n";
        };
    }
    // SIGINT cancels only while the campaign runs; if it throws, main()
    // returns at once, so no scope guard is needed.
    installSigintCancel(campaign_opt.cancel);
    CampaignResult campaign = engine.runCampaign(runnable, campaign_opt);
    clearSigintCancel();
    bool cancelled = campaign.report.cancelled;
    if (cancelled) {
        std::size_t unrun = campaign.report.errorHistogram[static_cast<
            unsigned>(RunError::Code::Cancelled)];
        std::cerr << "campaign cancelled: "
                  << campaign.report.totalSpecs - unrun << "/"
                  << campaign.report.totalSpecs << " specs settled"
                  << (opt.checkpointPath.empty()
                          ? ""
                          : " (resume with -resume " +
                                opt.checkpointPath + ")")
                  << "\n";
    }
    write_report(campaign.report);

    // The executed outcomes fill the runnable slots in order, around
    // the spec-file parse errors.
    std::size_t next_ran = 0;
    bool failed = printBatch(
        opt.format, "benchmark", queue,
        [&](const BenchmarkSpec &) -> SlotOutput {
            const RunOutcome &outcome = campaign.outcomes[next_ran++];
            if (!outcome.ok())
                return outcome.error();
            const auto &result = outcome.result();
            return SpecDoc{.text = result.format(),
                           .json = result.toJson(),
                           .csv = result.toCsv()};
        });
    // 130 = interrupted (the conventional 128 + SIGINT).
    if (cancelled)
        return 130;
    return failed ? 1 : 0;
}

using Verb = int (*)(const Options &, Engine &, obs::Tracer &);

/** The verb the options name; the first match wins. */
Verb
verbOf(const Options &opt)
{
    if (!opt.profileDiffA.empty())
        return profileDiffVerb;
    if (!opt.profilePath.empty())
        return profileVerb;
    if (!opt.tableDiffA.empty())
        return tableDiffVerb;
    if (opt.characterize)
        return characterizeVerb;
    if (!opt.tablePath.empty())
        return tableLoadVerb;
    if (opt.lint)
        return lintVerb;
    if (opt.explain)
        return explainVerb;
    if (opt.observe)
        return observeVerb;
    return runVerb;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::optional<Options> parsed = parseOptions(argc, argv);
        if (!parsed)
            return 0;
        const Options &opt = *parsed;
        Verb verb = verbOf(opt);
        if (verb != runVerb && !opt.campaignOnlyFlag.empty()) {
            fatal(opt.campaignOnlyFlag, " applies only to benchmark "
                  "runs (-asm, -code, -spec_file)");
        }

        // The fault plan stays active for the whole invocation; a bad
        // plan string fails here, before any work.
        std::optional<fault::ScopedFaultPlan> fault_scope;
        if (!opt.faultSpec.empty())
            fault_scope.emplace(opt.faultSpec);

        // One tracer for the whole invocation, disabled (and
        // near-free) unless -trace was given.
        obs::Tracer tracer;
        if (!opt.tracePath.empty()) {
            // Fail an unwritable path before any measurement work.
            std::ofstream probe(opt.tracePath);
            if (!probe)
                fatal("cannot write trace file '", opt.tracePath, "'");
            tracer.enable();
        }
        Engine engine;
        int status = verb(opt, engine, tracer);

        // The epilogue every verb shares: the trace, then -stats (the
        // metrics registry, with the engine's telemetry mirrored in as
        // engine.* gauges).
        if (tracer.enabled())
            tracer.writeFile(opt.tracePath);
        if (opt.stats) {
            obs::publishEngineTelemetry(engine.telemetry(),
                                        obs::Registry::process());
            std::cerr << render(obs::Registry::process().snapshot(),
                                opt.format);
        }
        return status;
    } catch (const nb::FatalError &e) {
        return 1;
    } catch (const nb::PanicError &e) {
        return 2;
    }
}
