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
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
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
        "                       (default 0; campaign runs only)\n"
        "  -checkpoint <file>   journal every settled campaign spec to\n"
        "                       a file; an interrupted campaign (kill,\n"
        "                       Ctrl-C) can continue with -resume\n"
        "  -resume <file>       skip specs already settled in a\n"
        "                       checkpoint journal (same uarch/mode)\n"
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
        "                       (load in Perfetto / chrome://tracing)\n"
        "                       with spans for campaign, per-worker\n"
        "                       per-spec execution, and batch runs\n"
        "  -stats               after running, dump the engine\n"
        "                       telemetry (machine pool, program\n"
        "                       cache, assemble/lint memos) and the\n"
        "                       metrics registry (runner phase\n"
        "                       histograms, observed counters) to\n"
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
readBinaryFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        nb::fatal("cannot open code file '", path, "'");
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nb;
    using namespace nb::core;

    SessionOptions session_opt;
    // Shared parameters, applied to every queued benchmark. The
    // defaults are the BenchmarkSpec defaults advertised above.
    BenchmarkSpec shared;
    // One entry per -asm/-code occurrence, in command-line order.
    std::vector<BenchmarkSpec> queued;
    OutputFormat format = OutputFormat::Text;
    unsigned jobs = 1;
    bool dedup = true;
    bool show_progress = false;
    bool characterize = false;
    bool lint = false;
    bool explain = false;
    bool observe = false;
    bool show_stats = false;
    std::string trace_path;
    std::string spec_file;
    std::string report_path;
    std::string fault_spec;
    std::string checkpoint_path;
    std::string resume_path;
    unsigned max_retries = 0;
    std::string table_path;
    std::string profile_path;
    std::string diff_path_a;
    std::string diff_path_b;
    std::string profile_diff_a;
    std::string profile_diff_b;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for option ", arg);
                return argv[++i];
            };
            if (arg == "-asm") {
                BenchmarkSpec spec;
                spec.asmCode = next();
                queued.push_back(spec);
            } else if (arg == "-asm_init") {
                shared.asmInit = next();
            } else if (arg == "-code") {
                std::string blob = readBinaryFile(next());
                BenchmarkSpec spec;
                spec.code = x86::decode(std::vector<std::uint8_t>(
                    blob.begin(), blob.end()));
                queued.push_back(spec);
            } else if (arg == "-spec_file") {
                spec_file = next();
            } else if (arg == "-jobs") {
                jobs = static_cast<unsigned>(parseCount(arg, next()));
                // 0 means one worker per hardware thread; resolve (and
                // clamp to >= 1) here so an unclamped zero never
                // reaches the worker setup.
                if (jobs == 0) {
                    jobs = std::max(
                        1u, std::thread::hardware_concurrency());
                }
            } else if (arg == "-characterize") {
                characterize = true;
            } else if (arg == "-table") {
                table_path = next();
            } else if (arg == "-table_diff") {
                diff_path_a = next();
                diff_path_b = next();
            } else if (arg == "-profile") {
                profile_path = next();
            } else if (arg == "-profile_diff") {
                profile_diff_a = next();
                profile_diff_b = next();
            } else if (arg == "-no_dedup") {
                dedup = false;
            } else if (arg == "-report") {
                report_path = next();
            } else if (arg == "-cycle_budget") {
                shared.cycleBudget = parseCount(arg, next());
            } else if (arg == "-max_retries") {
                max_retries =
                    static_cast<unsigned>(parseCount(arg, next()));
            } else if (arg == "-checkpoint") {
                checkpoint_path = next();
            } else if (arg == "-resume") {
                resume_path = next();
            } else if (arg == "-fault") {
                fault_spec = next();
            } else if (arg == "-progress") {
                show_progress = true;
            } else if (arg == "-config") {
                session_opt.configFile = next();
            } else if (arg == "-uarch") {
                session_opt.uarch = next();
            } else if (arg == "-kernel") {
                session_opt.mode = Mode::Kernel;
            } else if (arg == "-user") {
                session_opt.mode = Mode::User;
            } else if (arg == "-unroll_count") {
                shared.unrollCount =
                    std::max<std::uint64_t>(1, parseCount(arg, next()));
            } else if (arg == "-loop_count") {
                shared.loopCount = parseCount(arg, next());
            } else if (arg == "-n_measurements") {
                shared.nMeasurements =
                    static_cast<unsigned>(parseCount(arg, next()));
            } else if (arg == "-warm_up_count") {
                shared.warmUpCount =
                    static_cast<unsigned>(parseCount(arg, next()));
            } else if (arg == "-agg") {
                shared.agg = parseAggregate(next());
            } else if (arg == "-basic_mode") {
                shared.basicMode = true;
            } else if (arg == "-no_mem") {
                shared.noMem = true;
            } else if (arg == "-serialize") {
                shared.serialize = parseSerializeMode(next());
            } else if (arg == "-aperf_mperf") {
                shared.aperfMperf = true;
            } else if (arg == "-lint") {
                lint = true;
            } else if (arg == "-explain") {
                explain = true;
            } else if (arg == "-observe") {
                observe = true;
            } else if (arg == "-trace") {
                trace_path = next();
            } else if (arg == "-stats") {
                show_stats = true;
            } else if (arg == "-lint_level") {
                std::string value = next();
                auto level = lintLevelFromName(value);
                if (!level) {
                    fatal("bad value '", value,
                          "' for option -lint_level (use off, warn, "
                          "or error)");
                }
                shared.lintLevel = *level;
            } else if (arg == "-seed") {
                session_opt.seed = parseCount(arg, next());
            } else if (arg == "-json") {
                format = OutputFormat::Json;
            } else if (arg == "-csv") {
                format = OutputFormat::Csv;
            } else if (arg == "-list_uarchs") {
                for (const auto &name : uarch::allMicroArchNames())
                    std::cout << name << "\n";
                return 0;
            } else if (arg == "-h" || arg == "--help") {
                printUsage();
                return 0;
            } else {
                fatal("unknown option '", arg, "' (try --help)");
            }
        }

        // Fault injection: -fault wins over the NB_FAULT environment
        // variable (the CI sweep uses the latter so it needs no
        // command-line surgery). The plan stays active for the whole
        // invocation; a bad plan string fails here, before any work.
        if (fault_spec.empty()) {
            if (const char *env = std::getenv("NB_FAULT"))
                fault_spec = env;
        }
        std::optional<fault::ScopedFaultPlan> fault_scope;
        if (!fault_spec.empty())
            fault_scope.emplace(fault_spec);

        // One tracer for the whole invocation, disabled (and
        // near-free) unless -trace was given. Verbs that execute
        // benchmarks write it out right before they return.
        obs::Tracer tracer;
        if (!trace_path.empty()) {
            // Fail an unwritable path before any measurement work.
            std::ofstream probe(trace_path);
            if (!probe)
                fatal("cannot write trace file '", trace_path, "'");
            tracer.enable();
        }
        auto write_trace = [&]() {
            if (tracer.enabled())
                tracer.writeFile(trace_path);
        };
        // -stats: engine telemetry (as before), now mirrored into the
        // process metrics registry so one machine-readable dump also
        // covers the runner phase histograms and observed counters.
        auto print_stats = [&](Engine &engine) {
            if (!show_stats)
                return;
            EngineTelemetry t = engine.telemetry();
            obs::publishEngineTelemetry(t, obs::Registry::process());
            obs::RegistrySnapshot snap =
                obs::Registry::process().snapshot();
            switch (format) {
              case OutputFormat::Text:
                std::cerr << t.format() << snap.format();
                break;
              case OutputFormat::Json:
                std::cerr << snap.toJson();
                break;
              case OutputFormat::Csv:
                std::cerr << snap.toCsv();
                break;
            }
        };

        // ------------- machine-profile verbs (§VI) --------------

        if (!profile_diff_a.empty()) {
            auto before = profile::MachineProfile::load(profile_diff_a);
            auto after = profile::MachineProfile::load(profile_diff_b);
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

        if (!profile_path.empty()) {
            // Open the output file up front: an unwritable path must
            // fail before the measurement campaign, not after.
            std::ofstream profile_out(profile_path);
            if (!profile_out)
                fatal("cannot write profile file '", profile_path, "'");
            std::ofstream report_out;
            if (!report_path.empty() && report_path != "-") {
                report_out.open(report_path);
                if (!report_out)
                    fatal("cannot write report file '", report_path,
                          "'");
            }
            profile::ProfileOptions profile_opt;
            profile_opt.session = session_opt;
            profile_opt.jobs = jobs;
            profile_opt.dedup = dedup;
            profile_opt.trace = &tracer;
            profile_opt.observe = observe;
            if (show_progress) {
                profile_opt.progress = [](std::size_t done,
                                          std::size_t total) {
                    std::cerr << "\rprofile: " << done << "/" << total
                              << (done == total ? "\n" : "");
                };
            }
            Engine engine;
            auto build = profile::buildMachineProfile(engine,
                                                      profile_opt);
            std::cout << build.profile.format();
            profile_out << (format == OutputFormat::Csv
                                ? build.profile.toCsv()
                                : build.profile.toJson());
            if (!report_path.empty()) {
                std::string text = format == OutputFormat::Csv
                                       ? build.report.toCsv()
                                       : build.report.toJson();
                if (report_path == "-")
                    std::cerr << text;
                else
                    report_out << text;
            }
            write_trace();
            print_stats(engine);
            return build.profile.complete() ? 0 : 1;
        }

        // ------------- instruction-table verbs (§V) -------------

        if (!diff_path_a.empty()) {
            auto before = uops::InstructionTable::load(diff_path_a);
            auto after = uops::InstructionTable::load(diff_path_b);
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

        if (!table_path.empty() && !characterize) {
            auto table = uops::InstructionTable::load(table_path);
            switch (format) {
              case OutputFormat::Text:
                std::cout << table.format();
                break;
              case OutputFormat::Json:
                std::cout << table.toJson();
                break;
              case OutputFormat::Csv:
                std::cout << table.toCsv();
                break;
            }
            return 0;
        }

        if (characterize) {
            // Open the output files up front: an unwritable path must
            // fail before the full-catalog campaign, not after.
            std::ofstream table_out;
            if (!table_path.empty()) {
                table_out.open(table_path);
                if (!table_out)
                    fatal("cannot write table file '", table_path, "'");
            }
            std::ofstream report_out;
            if (!report_path.empty() && report_path != "-") {
                report_out.open(report_path);
                if (!report_out)
                    fatal("cannot write report file '", report_path,
                          "'");
            }
            uops::TableBuildOptions table_opt;
            table_opt.session = session_opt;
            table_opt.jobs = jobs;
            table_opt.dedup = dedup;
            table_opt.trace = &tracer;
            table_opt.observe = observe;
            if (show_progress) {
                table_opt.progress = [](std::size_t done,
                                        std::size_t total) {
                    std::cerr << "\rcharacterize: " << done << "/"
                              << total << (done == total ? "\n" : "");
                };
            }
            Engine engine;
            auto build = uops::buildInstructionTable(engine, table_opt);
            switch (format) {
              case OutputFormat::Text:
                std::cout << build.table.format();
                break;
              case OutputFormat::Json:
                std::cout << build.table.toJson();
                break;
              case OutputFormat::Csv:
                std::cout << build.table.toCsv();
                break;
            }
            if (!table_path.empty()) {
                table_out << (format == OutputFormat::Csv
                                  ? build.table.toCsv()
                                  : build.table.toJson());
            }
            if (!report_path.empty()) {
                std::string text = format == OutputFormat::Csv
                                       ? build.report.toCsv()
                                       : build.report.toJson();
                if (report_path == "-")
                    std::cerr << text;
                else
                    report_out << text;
            }
            write_trace();
            print_stats(engine);
            return build.table.errorCount() != 0 ? 1 : 0;
        }

        // ------------------- benchmark queue --------------------

        // Merge the shared parameters into each explicitly queued
        // body; spec-file entries below start from the same defaults
        // and may override them per line.
        for (auto &spec : queued) {
            auto body = std::move(spec.asmCode);
            auto code = std::move(spec.code);
            spec = shared;
            spec.asmCode = std::move(body);
            spec.code = std::move(code);
        }

        // One slot per benchmark, in order. Slots from malformed
        // spec-file lines carry a preset error (reported in position,
        // with the line number) instead of anything to run.
        std::vector<std::optional<RunError>> preset(queued.size());
        if (!spec_file.empty()) {
            std::ifstream in(spec_file);
            if (!in)
                fatal("cannot open spec file '", spec_file, "'");
            std::string text{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
            for (auto &entry : parseSpecLines(text, shared)) {
                preset.push_back(entry.error);
                queued.push_back(std::move(entry.spec));
            }
        }

        if (queued.empty()) {
            printUsage();
            return 1;
        }

        // ----------------------- lint verb ----------------------

        if (lint) {
            const auto &ua = uarch::getMicroArch(session_opt.uarch);
            analysis::Context ctx;
            ctx.mode = session_opt.mode;
            bool any_error = false;
            bool json_array =
                format == OutputFormat::Json && queued.size() > 1;
            if (json_array)
                std::cout << "[\n";
            for (std::size_t i = 0; i < queued.size(); ++i) {
                bool last = i + 1 == queued.size();
                if (queued.size() > 1 && format == OutputFormat::Csv) {
                    std::cout << "# benchmark " << i + 1 << "/"
                              << queued.size() << "\n";
                }
                std::optional<RunError> failure = preset[i];
                analysis::Report report;
                if (!failure) {
                    try {
                        // Assembly errors become per-spec failures,
                        // like the run path; print them ourselves
                        // instead of fatal()'s courtesy line.
                        ScopedFatalMessageSuppression suppress;
                        report = analysis::analyzeSpec(ua, queued[i],
                                                       ctx);
                    } catch (const FatalError &e) {
                        failure = RunError{
                            RunError::Code::AssemblyError, e.what()};
                    }
                }
                if (failure) {
                    any_error = true;
                    std::cerr << "spec " << i + 1 << "/"
                              << queued.size() << " failed ("
                              << runErrorCodeName(failure->code)
                              << "): " << failure->message << "\n";
                    if (format == OutputFormat::Json) {
                        std::cout << "{\"error\": {\"code\": \""
                                  << runErrorCodeName(failure->code)
                                  << "\", \"message\": \""
                                  << jsonEscape(failure->message)
                                  << "\"}}"
                                  << (json_array && !last ? "," : "")
                                  << "\n";
                    }
                    if (format == OutputFormat::Csv && !last)
                        std::cout << "\n";
                    continue;
                }
                if (report.count(analysis::Severity::Error) > 0)
                    any_error = true;
                switch (format) {
                  case OutputFormat::Text:
                    if (queued.size() > 1)
                        std::cout << "## " << queued[i].summary()
                                  << "\n";
                    std::cout << (report.empty()
                                      ? std::string(
                                            "clean (no diagnostics)\n")
                                      : report.format());
                    break;
                  case OutputFormat::Json:
                    std::cout << report.toJson();
                    if (json_array && !last)
                        std::cout << ",";
                    break;
                  case OutputFormat::Csv:
                    std::cout << report.toCsv();
                    break;
                }
                if (format != OutputFormat::Json &&
                    queued.size() > 1 && !last)
                    std::cout << "\n";
            }
            if (json_array)
                std::cout << "]\n";
            return any_error ? 1 : 0;
        }

        // --------------------- explain verb ---------------------

        if (explain) {
            const auto &ua = uarch::getMicroArch(session_opt.uarch);
            bool any_error = false;
            bool json_array =
                format == OutputFormat::Json && queued.size() > 1;
            if (json_array)
                std::cout << "[\n";
            for (std::size_t i = 0; i < queued.size(); ++i) {
                bool last = i + 1 == queued.size();
                if (queued.size() > 1 && format == OutputFormat::Csv) {
                    std::cout << "# benchmark " << i + 1 << "/"
                              << queued.size() << "\n";
                }
                std::optional<RunError> failure = preset[i];
                analysis::BoundReport report;
                if (!failure) {
                    try {
                        // Assembly and decode errors become per-spec
                        // failures, like the lint verb.
                        ScopedFatalMessageSuppression suppress;
                        report = analysis::analyzeBounds(ua,
                                                         queued[i]);
                    } catch (const FatalError &e) {
                        failure = RunError{
                            RunError::Code::AssemblyError, e.what()};
                    }
                }
                if (failure) {
                    any_error = true;
                    std::cerr << "spec " << i + 1 << "/"
                              << queued.size() << " failed ("
                              << runErrorCodeName(failure->code)
                              << "): " << failure->message << "\n";
                    if (format == OutputFormat::Json) {
                        std::cout << "{\"error\": {\"code\": \""
                                  << runErrorCodeName(failure->code)
                                  << "\", \"message\": \""
                                  << jsonEscape(failure->message)
                                  << "\"}}"
                                  << (json_array && !last ? "," : "")
                                  << "\n";
                    }
                    if (format == OutputFormat::Csv && !last)
                        std::cout << "\n";
                    continue;
                }
                switch (format) {
                  case OutputFormat::Text:
                    if (queued.size() > 1)
                        std::cout << "## " << queued[i].summary()
                                  << "\n";
                    std::cout << report.format();
                    break;
                  case OutputFormat::Json:
                    std::cout << report.toJson();
                    if (json_array && !last)
                        std::cout << ",";
                    break;
                  case OutputFormat::Csv:
                    std::cout << report.toCsv();
                    break;
                }
                if (format != OutputFormat::Json &&
                    queued.size() > 1 && !last)
                    std::cout << "\n";
            }
            if (json_array)
                std::cout << "]\n";
            return any_error ? 1 : 0;
        }

        // --------------------- observe verb ---------------------

        if (observe) {
            const auto &ua = uarch::getMicroArch(session_opt.uarch);
            // Resolve the session-level counter config into each
            // spec, like Session::run would -- observeSpec runs on
            // private machines and bypasses the session layer.
            if (!session_opt.configFile.empty()) {
                CounterConfig session_config =
                    CounterConfig::parseFile(session_opt.configFile);
                for (auto &spec : queued) {
                    if (spec.config.empty())
                        spec.config = session_config;
                }
            }
            bool any_error = false;
            bool json_array =
                format == OutputFormat::Json && queued.size() > 1;
            // The per-spec JSON documents nest the two reports under
            // "predicted" / "observed"; both toJson() outputs end in
            // a newline that must not land inside the wrapper.
            auto trimmed = [](std::string text) {
                while (!text.empty() &&
                       (text.back() == '\n' || text.back() == ' '))
                    text.pop_back();
                return text;
            };
            if (json_array)
                std::cout << "[\n";
            for (std::size_t i = 0; i < queued.size(); ++i) {
                bool last = i + 1 == queued.size();
                if (queued.size() > 1 && format == OutputFormat::Csv) {
                    std::cout << "# benchmark " << i + 1 << "/"
                              << queued.size() << "\n";
                }
                std::optional<RunError> failure = preset[i];
                analysis::BoundReport bounds;
                obs::ObservedProfile profile;
                if (!failure) {
                    // Assembly/decode errors from the static pass and
                    // execution errors from the observed run become
                    // per-spec failures, like the run path.
                    ScopedFatalMessageSuppression suppress;
                    try {
                        bounds = analysis::analyzeBounds(ua, queued[i]);
                    } catch (const FatalError &e) {
                        failure = RunError{
                            RunError::Code::AssemblyError, e.what()};
                    }
                }
                if (!failure) {
                    ScopedFatalMessageSuppression suppress;
                    std::string label = queued[i].summary();
                    try {
                        tracer.nameLane(0, "observe");
                        tracer.begin(0, label);
                        profile = obs::observeSpec(ua, queued[i],
                                                   session_opt.mode,
                                                   session_opt.seed);
                        tracer.end(0, label);
                    } catch (const FatalError &e) {
                        tracer.end(0, label);
                        failure = RunError{
                            RunError::Code::ExecutionError, e.what()};
                    }
                }
                if (failure) {
                    any_error = true;
                    std::cerr << "spec " << i + 1 << "/"
                              << queued.size() << " failed ("
                              << runErrorCodeName(failure->code)
                              << "): " << failure->message << "\n";
                    if (format == OutputFormat::Json) {
                        std::cout << "{\"error\": {\"code\": \""
                                  << runErrorCodeName(failure->code)
                                  << "\", \"message\": \""
                                  << jsonEscape(failure->message)
                                  << "\"}}"
                                  << (json_array && !last ? "," : "")
                                  << "\n";
                    }
                    if (format == OutputFormat::Csv && !last)
                        std::cout << "\n";
                    continue;
                }
                switch (format) {
                  case OutputFormat::Text:
                    if (queued.size() > 1)
                        std::cout << "## " << queued[i].summary()
                                  << "\n";
                    std::cout << obs::formatPredictedVsObserved(
                        bounds, profile);
                    break;
                  case OutputFormat::Json:
                    std::cout << "{\"predicted\": "
                              << trimmed(bounds.toJson())
                              << ",\n \"observed\": "
                              << trimmed(profile.toJson()) << "}"
                              << (json_array && !last ? "," : "")
                              << "\n";
                    break;
                  case OutputFormat::Csv:
                    std::cout << "# predicted\n" << bounds.toCsv()
                              << "# observed\n" << profile.toCsv();
                    break;
                }
                if (format != OutputFormat::Json &&
                    queued.size() > 1 && !last)
                    std::cout << "\n";
            }
            if (json_array)
                std::cout << "]\n";
            write_trace();
            return any_error ? 1 : 0;
        }

        std::vector<BenchmarkSpec> runnable;
        runnable.reserve(queued.size());
        for (std::size_t i = 0; i < queued.size(); ++i) {
            if (!preset[i])
                runnable.push_back(queued[i]);
        }

        // Every batch -- one -asm, repeated -asm, or a spec file --
        // runs as a campaign: each spec on a machine reset to the same
        // starting state, so -jobs 1 and -jobs N print the same
        // results.
        Engine engine;
        std::vector<RunOutcome> ran;
        bool was_cancelled = false;
        {
            // The report file and the SIGINT handler live for the
            // campaign only. The report file opens up front: an
            // unwritable path must fail before hours of campaign work,
            // not after.
            std::ofstream report_out;
            if (!report_path.empty() && report_path != "-") {
                report_out.open(report_path);
                if (!report_out)
                    fatal("cannot write report file '", report_path,
                          "'");
            }
            CampaignOptions campaign_opt;
            campaign_opt.jobs = jobs;
            campaign_opt.dedup = dedup;
            campaign_opt.session = session_opt;
            campaign_opt.trace = &tracer;
            campaign_opt.maxRetries = max_retries;
            campaign_opt.checkpoint = checkpoint_path;
            campaign_opt.resume = resume_path;
            // Ctrl-C cancels cooperatively: in-flight specs finish,
            // the checkpoint flushes, and a partial report (with the
            // unexecuted specs settled as "cancelled" errors) is
            // still written below.
            campaign_opt.cancel = std::make_shared<CancelToken>();
            installSigintCancel(campaign_opt.cancel);
            struct SigintScope
            {
                ~SigintScope() { clearSigintCancel(); }
            } sigint_scope;
            if (show_progress) {
                campaign_opt.progress =
                    [](const CampaignProgress &event) {
                        // Settle events keep the coarse counter;
                        // start events name the spec in flight so a
                        // stalled campaign is attributable.
                        if (event.starting) {
                            std::cerr << "\rcampaign: " << event.done
                                      << "/" << event.total << " ["
                                      << event.specLabel << "]";
                            return;
                        }
                        std::cerr << "\rcampaign: " << event.done << "/"
                                  << event.total
                                  << (event.done == event.total ? "\n"
                                                                : "");
                    };
            }
            auto campaign = engine.runCampaign(runnable, campaign_opt);
            ran = std::move(campaign.outcomes);
            was_cancelled = campaign.report.cancelled;
            if (was_cancelled) {
                std::size_t unrun =
                    campaign.report.errorHistogram[static_cast<
                        unsigned>(RunError::Code::Cancelled)];
                std::cerr << "campaign cancelled: "
                          << campaign.report.totalSpecs - unrun << "/"
                          << campaign.report.totalSpecs
                          << " specs settled"
                          << (checkpoint_path.empty()
                                  ? ""
                                  : " (resume with -resume " +
                                        checkpoint_path + ")")
                          << "\n";
            }
            if (!report_path.empty()) {
                std::string text = format == OutputFormat::Csv
                                       ? campaign.report.toCsv()
                                       : campaign.report.toJson();
                if (report_path == "-")
                    std::cerr << text;
                else
                    report_out << text;
            }
        }

        // Fold the executed outcomes back into slot order around the
        // preset spec-file parse errors.
        std::vector<RunOutcome> outcomes;
        outcomes.reserve(queued.size());
        std::size_t next_ran = 0;
        for (std::size_t i = 0; i < queued.size(); ++i) {
            if (preset[i])
                outcomes.push_back(RunOutcome(*preset[i]));
            else
                outcomes.push_back(std::move(ran[next_ran++]));
        }

        // -json always prints ONE parseable document: a bare object
        // (result or {"error": ...}) for a single spec, an array with
        // one entry per spec (error entries in position) for a batch.
        // -csv prints one standalone fromCsv()-parseable document per
        // spec, separated by blank lines, each preceded by a
        // "# benchmark i/N" comment in batch mode.
        bool json_array =
            format == OutputFormat::Json && outcomes.size() > 1;
        if (json_array)
            std::cout << "[\n";

        bool any_failed = false;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const auto &outcome = outcomes[i];
            bool last = i + 1 == outcomes.size();
            if (outcomes.size() > 1 && format == OutputFormat::Csv) {
                std::cout << "# benchmark " << i + 1 << "/"
                          << outcomes.size() << "\n";
            }
            if (!outcome.ok()) {
                any_failed = true;
                std::cerr << "benchmark " << i + 1 << "/"
                          << outcomes.size() << " failed ("
                          << runErrorCodeName(outcome.error().code)
                          << "): " << outcome.error().message << "\n";
                if (format == OutputFormat::Json) {
                    std::cout << "{\"error\": {\"code\": \""
                              << runErrorCodeName(outcome.error().code)
                              << "\", \"message\": \""
                              << jsonEscape(outcome.error().message)
                              << "\"}}" << (json_array && !last ? "," : "")
                              << "\n";
                }
                if (format == OutputFormat::Csv && !last)
                    std::cout << "\n";
                continue;
            }
            const auto &result = outcome.result();
            if (outcomes.size() > 1 && format == OutputFormat::Text) {
                std::cout << "## " << result.specEcho << "\n";
            }
            switch (format) {
              case OutputFormat::Text:
                std::cout << result.format();
                break;
              case OutputFormat::Json:
                std::cout << result.toJson();
                if (json_array && !last)
                    std::cout << ",";
                break;
              case OutputFormat::Csv:
                std::cout << result.toCsv();
                break;
            }
            if (format != OutputFormat::Json &&
                outcomes.size() > 1 && !last)
                std::cout << "\n";
        }
        if (json_array)
            std::cout << "]\n";
        write_trace();
        print_stats(engine);
        // 130 = interrupted (the conventional 128 + SIGINT).
        if (was_cancelled)
            return 130;
        return any_failed ? 1 : 0;
    } catch (const FatalError &e) {
        return 1;
    } catch (const PanicError &e) {
        return 2;
    }
}
