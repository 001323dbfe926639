/**
 * @file
 * Campaign executor implementation.
 *
 * The fan-out is deliberately simple: dedup first (so the work list
 * and the duplicate resolution are fixed before any thread starts),
 * then the unique work list goes to the workers. Every worker resets
 * its machine before every spec, so who runs what cannot matter; the
 * workers share one atomic cursor over a heaviest-first order.
 */

#include "campaign.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <exception>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/strings.hh"
#include "core/json.hh"
#include "core/result.hh"
#include "fault/fault.hh"
#include "uarch/uarch.hh"

namespace nb
{

namespace
{

/** Split a spec-file line into tokens, honouring double quotes
 *  ("add RAX, RBX" is one token, quotes stripped). Returns nullopt
 *  for an unterminated quote. */
std::optional<std::vector<std::string>>
tokenizeSpecLine(const std::string &line)
{
    std::vector<std::string> tokens;
    std::string token;
    bool in_token = false;
    bool quoted = false;
    for (char c : line) {
        if (quoted) {
            if (c == '"')
                quoted = false;
            else
                token += c;
        } else if (c == '"') {
            quoted = true;
            in_token = true;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            if (in_token) {
                tokens.push_back(std::move(token));
                token.clear();
                in_token = false;
            }
        } else {
            token += c;
            in_token = true;
        }
    }
    if (quoted)
        return std::nullopt;
    if (in_token)
        tokens.push_back(std::move(token));
    return tokens;
}

} // namespace

unsigned
CampaignOptions::resolvedJobs() const
{
    unsigned n = jobs != 0 ? jobs : std::thread::hardware_concurrency();
    return std::max(1u, n);
}

std::vector<SpecFileEntry>
parseSpecLines(const std::string &text,
               const core::BenchmarkSpec &defaults)
{
    std::vector<SpecFileEntry> entries;
    // Parse failures become per-entry data; keep fatal()'s courtesy
    // stderr print quiet for them (the CLI reports them in position).
    ScopedFatalMessageSuppression suppress_fatal_prints;
    std::size_t line_no = 0;
    for (const auto &raw : split(text, '\n')) {
        ++line_no;
        std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;

        SpecFileEntry entry;
        entry.lineNumber = line_no;
        entry.spec = defaults;
        entry.spec.asmCode.clear();
        entry.spec.code.clear();

        auto fail = [&](const std::string &why) {
            entry.error = RunError{RunError::Code::InvalidSpec,
                                   "spec file line " +
                                       std::to_string(line_no) + ": " +
                                       why};
        };

        // A plain line is the benchmark body verbatim (the original
        // spec-file format); options start with '-'.
        if (line[0] != '-') {
            entry.spec.asmCode = line;
            entries.push_back(std::move(entry));
            continue;
        }

        auto tokens = tokenizeSpecLine(line);
        if (!tokens) {
            fail("unterminated quote");
            entries.push_back(std::move(entry));
            continue;
        }
        for (std::size_t t = 0; t < tokens->size() && !entry.error;
             ++t) {
            const std::string &opt = (*tokens)[t];
            auto value = [&]() -> std::optional<std::string> {
                if (t + 1 >= tokens->size()) {
                    fail("missing value for option " + opt);
                    return std::nullopt;
                }
                return (*tokens)[++t];
            };
            auto count = [&](const std::string &v)
                -> std::optional<std::uint64_t> {
                auto parsed = parseInt(v);
                if (!parsed || *parsed < 0) {
                    fail("bad value '" + v + "' for option " + opt);
                    return std::nullopt;
                }
                return static_cast<std::uint64_t>(*parsed);
            };
            try {
                if (opt == "-asm") {
                    if (auto v = value())
                        entry.spec.asmCode = *v;
                } else if (opt == "-asm_init") {
                    if (auto v = value())
                        entry.spec.asmInit = *v;
                } else if (opt == "-unroll_count") {
                    if (auto v = value())
                        if (auto n = count(*v))
                            entry.spec.unrollCount = *n;
                } else if (opt == "-loop_count") {
                    if (auto v = value())
                        if (auto n = count(*v))
                            entry.spec.loopCount = *n;
                } else if (opt == "-n_measurements") {
                    if (auto v = value())
                        if (auto n = count(*v))
                            entry.spec.nMeasurements =
                                static_cast<unsigned>(*n);
                } else if (opt == "-warm_up_count") {
                    if (auto v = value())
                        if (auto n = count(*v))
                            entry.spec.warmUpCount =
                                static_cast<unsigned>(*n);
                } else if (opt == "-agg") {
                    // parseAggregate fatal()s on unknown names; keep
                    // that as a per-line error, not a process exit.
                    if (auto v = value())
                        entry.spec.agg = parseAggregate(*v);
                } else if (opt == "-serialize") {
                    if (auto v = value())
                        entry.spec.serialize =
                            core::parseSerializeMode(*v);
                } else if (opt == "-basic_mode") {
                    entry.spec.basicMode = true;
                } else if (opt == "-no_mem") {
                    entry.spec.noMem = true;
                } else if (opt == "-aperf_mperf") {
                    entry.spec.aperfMperf = true;
                } else if (opt == "-lint_level") {
                    if (auto v = value()) {
                        auto level = core::lintLevelFromName(*v);
                        if (!level) {
                            fail("bad value '" + *v +
                                 "' for option -lint_level (use "
                                 "off, warn, or error)");
                        } else {
                            entry.spec.lintLevel = *level;
                        }
                    }
                } else if (opt == "-config") {
                    // Per-line counter configs (§III-J): one campaign
                    // can mix event sets. parseFile fatal()s on an
                    // unreadable path; keep that per-line too.
                    if (auto v = value())
                        entry.spec.config =
                            core::CounterConfig::parseFile(*v);
                } else {
                    fail("unknown option '" + opt + "'");
                }
            } catch (const FatalError &e) {
                fail(e.what());
            }
        }
        if (!entry.error && entry.spec.asmCode.empty())
            fail("option line has no -asm body");
        entries.push_back(std::move(entry));
    }
    return entries;
}

// ------------------------------------------------------ cancellation --

namespace
{

/** The token the SIGINT handler cancels. The handler itself only
 *  performs a relaxed atomic store through the raw pointer; the
 *  shared_ptr (mutated only from installSigintCancel/clear, normal
 *  context) keeps the token alive while the handler is installed. */
std::atomic<CancelToken *> sigintToken{nullptr};
std::shared_ptr<CancelToken> sigintOwner;

extern "C" void
nbSigintHandler(int)
{
    if (CancelToken *token =
            sigintToken.load(std::memory_order_relaxed))
        token->cancel();
}

} // namespace

void
installSigintCancel(std::shared_ptr<CancelToken> token)
{
    if (!token) {
        clearSigintCancel();
        return;
    }
    sigintOwner = token;
    sigintToken.store(token.get(), std::memory_order_relaxed);
    std::signal(SIGINT, &nbSigintHandler);
}

void
clearSigintCancel()
{
    std::signal(SIGINT, SIG_DFL);
    sigintToken.store(nullptr, std::memory_order_relaxed);
    sigintOwner.reset();
}

// ----------------------------------------------------- checkpointing --

namespace
{

/** Flatten a multi-line JSON emission onto one journal line. Only
 *  structural whitespace is affected: jsonEscape encodes embedded
 *  newlines as
, so string contents survive. */
std::string
flattenJson(std::string text)
{
    for (char &c : text)
        if (c == '\n')
            c = ' ';
    while (!text.empty() && text.back() == ' ')
        text.pop_back();
    return text;
}

/** One journal line for a settled unique spec: canonical key plus
 *  the full outcome, round-trippable. */
std::string
journalLine(const std::string &key, const RunOutcome &outcome)
{
    std::ostringstream os;
    os << "{\"key\": \"" << core::jsonEscape(key) << "\", \"ok\": "
       << (outcome.ok() ? 1 : 0);
    if (outcome.ok()) {
        os << ", \"result\": "
           << flattenJson(outcome.result().toJson());
    } else {
        const RunError &error = outcome.error();
        os << ", \"code\": \"" << runErrorCodeName(error.code)
           << "\", \"transient\": " << (error.transient ? 1 : 0)
           << ", \"message\": \"" << core::jsonEscape(error.message)
           << "\"";
    }
    os << "}";
    return os.str();
}

/** The journal header: schema version plus the campaign identity
 *  fields canonical keys do not cover. */
std::string
journalHeader(const std::string &uarch, const std::string &mode,
              std::size_t total, std::size_t unique)
{
    std::ostringstream os;
    os << "{\"nb_checkpoint\": 1, \"uarch\": \""
       << core::jsonEscape(uarch) << "\", \"mode\": \""
       << core::jsonEscape(mode) << "\", \"total_specs\": " << total
       << ", \"unique_specs\": " << unique << "}";
    return os.str();
}

/** Parse one journal entry line into (key, outcome). @throws
 *  nb::FatalError on malformed input (the caller decides whether a
 *  bad line is fatal or just the torn tail of a killed writer). */
std::pair<std::string, RunOutcome>
parseJournalLine(const std::string &line)
{
    core::JsonCursor cur(line);
    std::string key;
    bool have_key = false;
    bool ok = false;
    bool have_ok = false;
    std::optional<core::BenchmarkResult> result;
    RunError error;
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string field = cur.parseString();
            cur.expect(':');
            if (field == "key") {
                key = cur.parseString();
                have_key = true;
            } else if (field == "ok") {
                ok = cur.parseNumber() != 0;
                have_ok = true;
            } else if (field == "result") {
                // Re-parse the nested result with its own reader:
                // capture the raw object extent, then hand it over.
                result = core::BenchmarkResult::fromJson(
                    cur.captureValue());
            } else if (field == "code") {
                std::string name = cur.parseString();
                auto code = runErrorCodeFromName(name);
                if (!code)
                    fatal("checkpoint: unknown error code '", name,
                          "'");
                error.code = *code;
            } else if (field == "transient") {
                error.transient = cur.parseNumber() != 0;
            } else if (field == "message") {
                error.message = cur.parseString();
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    if (!have_key || !have_ok)
        fatal("checkpoint: journal line missing key/ok fields");
    if (ok) {
        if (!result)
            fatal("checkpoint: ok entry without a result");
        return {std::move(key), RunOutcome(std::move(*result))};
    }
    return {std::move(key), RunOutcome(std::move(error))};
}

/**
 * Load a checkpoint journal for resumption. Returns canonical key ->
 * recorded outcome. Fatal on an unreadable file, a bad header, or a
 * campaign-identity mismatch; a malformed *trailing* entry line (the
 * torn write of a killed process) is skipped with a warning, but a
 * malformed line in the middle is fatal (the journal is line-append
 * only, so corruption there means the file is not what it claims).
 */
std::unordered_map<std::string, RunOutcome>
loadCheckpoint(const std::string &path, const std::string &uarch,
               const std::string &mode)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read checkpoint '", path, "'");
    std::string line;
    if (!std::getline(in, line))
        fatal("checkpoint '", path, "' is empty");
    // Header: require the schema marker and matching identity.
    {
        core::JsonCursor cur(line);
        bool versioned = false;
        std::string ck_uarch;
        std::string ck_mode;
        cur.expect('{');
        if (!cur.tryConsume('}')) {
            do {
                std::string field = cur.parseString();
                cur.expect(':');
                if (field == "nb_checkpoint") {
                    versioned = cur.parseNumber() == 1;
                } else if (field == "uarch") {
                    ck_uarch = cur.parseString();
                } else if (field == "mode") {
                    ck_mode = cur.parseString();
                } else {
                    cur.skipValue();
                }
            } while (cur.tryConsume(','));
            cur.expect('}');
        }
        if (!versioned)
            fatal("'", path, "' is not a version-1 nanoBench ",
                  "checkpoint journal");
        if (ck_uarch != uarch || ck_mode != mode) {
            fatal("checkpoint '", path, "' was written for ",
                  ck_uarch, "/", ck_mode, ", not ", uarch, "/", mode,
                  " (canonical spec keys do not cover the uarch, so ",
                  "cross-machine resumption would corrupt results)");
        }
    }
    std::unordered_map<std::string, RunOutcome> outcomes;
    std::vector<std::string> pending;
    while (std::getline(in, line)) {
        if (!trim(line).empty())
            pending.push_back(line);
    }
    for (std::size_t i = 0; i < pending.size(); ++i) {
        try {
            auto [key, outcome] = parseJournalLine(pending[i]);
            outcomes.insert_or_assign(std::move(key),
                                      std::move(outcome));
        } catch (const FatalError &e) {
            if (i + 1 == pending.size()) {
                warn("checkpoint '", path, "': ignoring torn final ",
                     "entry (", e.what(), ")");
                break;
            }
            fatal("checkpoint '", path, "' entry ", i + 1,
                  " is corrupt: ", e.what());
        }
    }
    return outcomes;
}

} // namespace

// ------------------------------------------------------------ report --

std::size_t
CampaignReport::errorCount() const
{
    std::size_t total = 0;
    for (std::size_t count : errorHistogram)
        total += count;
    return total;
}

std::string
CampaignReport::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"total_specs\": " << totalSpecs << ",\n";
    os << "  \"unique_specs\": " << uniqueSpecs << ",\n";
    os << "  \"cache_hits\": " << cacheHits << ",\n";
    os << "  \"ok\": " << okCount << ",\n";
    os << "  \"retries\": " << retries << ",\n";
    os << "  \"resumed_specs\": " << resumedSpecs << ",\n";
    // The JSON subset has no booleans (core/json.hh): 0/1.
    os << "  \"cancelled\": " << (cancelled ? 1 : 0) << ",\n";
    os << "  \"wall_seconds\": " << core::exactDouble(wallSeconds)
       << ",\n";
    os << "  \"per_worker_specs\": [";
    for (std::size_t i = 0; i < perWorkerSpecs.size(); ++i)
        os << (i ? ", " : "") << perWorkerSpecs[i];
    os << "],\n";
    os << "  \"per_worker_seconds\": [";
    for (std::size_t i = 0; i < perWorkerSeconds.size(); ++i)
        os << (i ? ", " : "") << core::exactDouble(perWorkerSeconds[i]);
    os << "],\n";
    os << "  \"phases\": {";
    for (unsigned i = 0; i < obs::kNumPhases; ++i) {
        os << (i ? ", " : "") << "\""
           << obs::phaseName(static_cast<obs::Phase>(i))
           << "\": " << phaseTimes.ns[i];
    }
    os << "},\n";
    os << "  \"errors\": {";
    bool first = true;
    for (unsigned i = 0; i < errorHistogram.size(); ++i) {
        if (!errorHistogram[i])
            continue;
        os << (first ? "" : ", ") << "\""
           << core::jsonEscape(
                  runErrorCodeName(static_cast<RunError::Code>(i)))
           << "\": " << errorHistogram[i];
        first = false;
    }
    os << "},\n";
    // Embed the telemetry snapshot as a nested object (whitespace
    // inside it is irrelevant to the reader).
    std::string tj = telemetry.toJson();
    while (!tj.empty() && tj.back() == '\n')
        tj.pop_back();
    os << "  \"telemetry\": " << tj << "\n";
    os << "}\n";
    return os.str();
}

std::string
CampaignReport::toCsv() const
{
    std::ostringstream os;
    os << "# campaign report\n";
    os << "key,value\n";
    os << "jobs," << jobs << "\n";
    os << "total_specs," << totalSpecs << "\n";
    os << "unique_specs," << uniqueSpecs << "\n";
    os << "cache_hits," << cacheHits << "\n";
    os << "ok," << okCount << "\n";
    os << "retries," << retries << "\n";
    os << "resumed_specs," << resumedSpecs << "\n";
    os << "cancelled," << (cancelled ? 1 : 0) << "\n";
    os << "wall_seconds," << core::exactDouble(wallSeconds) << "\n";
    for (std::size_t i = 0; i < perWorkerSpecs.size(); ++i)
        os << "worker_" << i << "_specs," << perWorkerSpecs[i] << "\n";
    for (std::size_t i = 0; i < perWorkerSeconds.size(); ++i) {
        os << "worker_" << i << "_seconds,"
           << core::exactDouble(perWorkerSeconds[i]) << "\n";
    }
    for (unsigned i = 0; i < obs::kNumPhases; ++i) {
        os << "phase_" << obs::phaseName(static_cast<obs::Phase>(i))
           << "_ns," << phaseTimes.ns[i] << "\n";
    }
    for (unsigned i = 0; i < errorHistogram.size(); ++i) {
        if (!errorHistogram[i])
            continue;
        os << core::csvEscape(
                  std::string("error_") +
                  runErrorCodeName(static_cast<RunError::Code>(i)))
           << "," << errorHistogram[i] << "\n";
    }
    // Telemetry rows ride along, minus their own two header lines.
    std::string tcsv = telemetry.toCsv();
    std::size_t skip = tcsv.find('\n');
    skip = tcsv.find('\n', skip + 1);
    os << tcsv.substr(skip + 1);
    return os.str();
}

CampaignReport
CampaignReport::fromJson(const std::string &text)
{
    CampaignReport report;
    report.errorHistogram.assign(kNumRunErrorCodes, 0);
    core::JsonCursor cur(text);
    cur.expect('{');
    if (!cur.tryConsume('}')) {
        do {
            std::string key = cur.parseString();
            cur.expect(':');
            if (key == "jobs") {
                report.jobs =
                    static_cast<unsigned>(cur.parseNumber());
            } else if (key == "total_specs") {
                report.totalSpecs =
                    static_cast<std::size_t>(cur.parseNumber());
            } else if (key == "unique_specs") {
                report.uniqueSpecs =
                    static_cast<std::size_t>(cur.parseNumber());
            } else if (key == "cache_hits") {
                report.cacheHits =
                    static_cast<std::size_t>(cur.parseNumber());
            } else if (key == "ok") {
                report.okCount =
                    static_cast<std::size_t>(cur.parseNumber());
            } else if (key == "retries") {
                report.retries =
                    static_cast<std::size_t>(cur.parseNumber());
            } else if (key == "resumed_specs") {
                report.resumedSpecs =
                    static_cast<std::size_t>(cur.parseNumber());
            } else if (key == "cancelled") {
                report.cancelled = cur.parseNumber() != 0;
            } else if (key == "wall_seconds") {
                report.wallSeconds = cur.parseNumber();
            } else if (key == "per_worker_specs") {
                cur.expect('[');
                if (!cur.tryConsume(']')) {
                    do {
                        report.perWorkerSpecs.push_back(
                            static_cast<std::size_t>(
                                cur.parseNumber()));
                    } while (cur.tryConsume(','));
                    cur.expect(']');
                }
            } else if (key == "per_worker_seconds") {
                cur.expect('[');
                if (!cur.tryConsume(']')) {
                    do {
                        report.perWorkerSeconds.push_back(
                            cur.parseNumber());
                    } while (cur.tryConsume(','));
                    cur.expect(']');
                }
            } else if (key == "phases") {
                cur.expect('{');
                if (!cur.tryConsume('}')) {
                    do {
                        std::string name = cur.parseString();
                        cur.expect(':');
                        double ns = cur.parseNumber();
                        unsigned idx = obs::phaseIndexFromName(name);
                        if (idx >= obs::kNumPhases)
                            fatal("campaign report: unknown phase '",
                                  name, "'");
                        report.phaseTimes.ns[idx] =
                            static_cast<std::uint64_t>(ns);
                    } while (cur.tryConsume(','));
                    cur.expect('}');
                }
            } else if (key == "errors") {
                cur.expect('{');
                if (!cur.tryConsume('}')) {
                    do {
                        std::string name = cur.parseString();
                        cur.expect(':');
                        double count = cur.parseNumber();
                        auto code = runErrorCodeFromName(name);
                        if (!code)
                            fatal("campaign report: unknown error "
                                  "code '", name, "'");
                        report.errorHistogram[static_cast<unsigned>(
                            *code)] =
                            static_cast<std::size_t>(count);
                    } while (cur.tryConsume(','));
                    cur.expect('}');
                }
            } else if (key == "telemetry") {
                report.telemetry = EngineTelemetry::parse(cur);
            } else {
                cur.skipValue();
            }
        } while (cur.tryConsume(','));
        cur.expect('}');
    }
    cur.expectEnd();
    return report;
}

namespace
{

/**
 * Relative cost of a spec for the campaign queue: body length x
 * unroll x max(loop, 1) x (warm-up + measurements) x counter rounds.
 * A shape estimate only; it must stay cheap (no assembly, no bound
 * analysis), since it runs for every unique spec before any worker
 * starts. Asm text counts one instruction per statement separator.
 */
double
specWeight(const core::BenchmarkSpec &spec,
           const core::CounterConfig &default_config, unsigned num_prog)
{
    double body = static_cast<double>(spec.code.size());
    if (spec.code.empty() && !spec.asmCode.empty()) {
        body = 1;
        for (char c : spec.asmCode)
            body += c == ';' || c == '\n';
    }
    std::size_t events = spec.config.empty()
                             ? default_config.events().size()
                             : spec.config.events().size();
    double rounds = static_cast<double>(
        std::max<std::size_t>(1, (events + num_prog - 1) / num_prog));
    return body * static_cast<double>(spec.unrollCount) *
           static_cast<double>(std::max<std::uint64_t>(1, spec.loopCount)) *
           (spec.warmUpCount + spec.nMeasurements) * rounds;
}

} // namespace

// ---------------------------------------------------------- executor --

CampaignResult
Engine::runCampaign(const std::vector<core::BenchmarkSpec> &specs,
                    const CampaignOptions &options)
{
    auto start = std::chrono::steady_clock::now();

    // Resolve the session options once on this thread: unknown uarchs
    // and unreadable config files throw here, before any worker
    // starts, and workers do not repeat the file parse.
    SessionOptions session_opt = options.session;
    if (session_opt.config.empty() && !session_opt.configFile.empty())
        session_opt.config =
            core::CounterConfig::parseFile(session_opt.configFile);
    session_opt.configFile.clear();
    const uarch::MicroArch &ua = uarch::getMicroArch(session_opt.uarch);

    // Dedup pass: uniqueIdx lists the spec indices to execute;
    // sourceOf maps every input spec to its position in uniqueIdx.
    std::vector<std::size_t> uniqueIdx;
    std::vector<std::size_t> sourceOf(specs.size());
    std::vector<std::size_t> multiplicity;
    if (options.dedup) {
        std::unordered_map<std::string, std::size_t> seen;
        seen.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto [it, inserted] = seen.emplace(
                specCanonicalKey(specs[i]), uniqueIdx.size());
            if (inserted) {
                uniqueIdx.push_back(i);
                multiplicity.push_back(1);
            } else {
                ++multiplicity[it->second];
            }
            sourceOf[i] = it->second;
        }
    } else {
        uniqueIdx.resize(specs.size());
        multiplicity.assign(specs.size(), 1);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            uniqueIdx[i] = i;
            sourceOf[i] = i;
        }
    }

    std::size_t unique_count = uniqueIdx.size();
    unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        options.resolvedJobs(), unique_count));

    CampaignResult campaign;
    campaign.report.jobs = jobs;
    campaign.report.totalSpecs = specs.size();
    campaign.report.uniqueSpecs = unique_count;
    campaign.report.cacheHits = specs.size() - unique_count;
    campaign.report.perWorkerSpecs.assign(jobs, 0);
    campaign.report.perWorkerSeconds.assign(jobs, 0.0);

    // Keys and labels for progress events and trace spans, resolved
    // once outside the workers (and not at all when nobody listens).
    obs::Tracer *tracer = options.trace && options.trace->enabled()
                              ? options.trace
                              : nullptr;
    std::vector<std::string> spec_keys;
    std::vector<std::string> spec_labels;
    bool journalling =
        !options.checkpoint.empty() || !options.resume.empty();
    if (options.progress || tracer || journalling) {
        spec_keys.resize(unique_count);
        spec_labels.resize(unique_count);
        for (std::size_t u = 0; u < unique_count; ++u) {
            spec_keys[u] = specCanonicalKey(specs[uniqueIdx[u]]);
            spec_labels[u] = specs[uniqueIdx[u]].summary();
        }
    }
    if (tracer) {
        // The whole-campaign span lives on its own lane past the
        // worker lanes (tid = worker index).
        tracer->nameLane(jobs, "campaign");
        tracer->begin(jobs, "campaign", "specs",
                      std::to_string(specs.size()));
    }

    // Per-worker accounting sinks, folded into the report (and, for
    // the observers, the process registry) after the join.
    std::vector<obs::PhaseTimes> worker_phases(jobs);
    std::vector<sim::ExecObserver> observers(jobs);

    // RunOutcome has no default state, hence the optional wrapper;
    // every slot is filled unless a worker aborted by exception.
    std::vector<std::optional<RunOutcome>> unique_outcomes(
        unique_count);

    std::mutex progress_mutex;
    std::size_t settled = 0;
    std::atomic<bool> abort{false};
    std::atomic<std::size_t> total_retries{0};
    std::exception_ptr failure;
    CancelToken *cancel = options.cancel.get();

    // Resumption: pre-fill unique outcomes recorded by an earlier,
    // interrupted campaign. Workers skip filled slots, so a resumed
    // campaign only executes the remainder -- and because duplicate
    // resolution happens after the workers anyway, the final report
    // is shaped exactly like an uninterrupted run's.
    if (!options.resume.empty()) {
        auto recorded =
            loadCheckpoint(options.resume, session_opt.uarch,
                           core::modeName(session_opt.mode));
        for (std::size_t u = 0; u < unique_count; ++u) {
            auto it = recorded.find(spec_keys[u]);
            if (it == recorded.end())
                continue;
            unique_outcomes[u] = it->second;
            ++campaign.report.resumedSpecs;
            settled += multiplicity[u];
        }
        obs::Registry::process()
            .counter("campaign.checkpoint.resumed")
            .add(campaign.report.resumedSpecs);
    }

    // Checkpoint journal: header first, then one line per settled
    // unique spec (resumed entries are re-recorded immediately so the
    // new journal is complete on its own). Entry writes happen under
    // progress_mutex; flushes are batched (options.checkpointEvery).
    std::ofstream checkpoint_out;
    std::size_t checkpoint_unflushed = 0;
    if (!options.checkpoint.empty()) {
        checkpoint_out.open(options.checkpoint,
                            std::ios::out | std::ios::trunc);
        if (!checkpoint_out)
            fatal("cannot write checkpoint '", options.checkpoint,
                  "'");
        checkpoint_out << journalHeader(
                              session_opt.uarch,
                              core::modeName(session_opt.mode),
                              specs.size(), unique_count)
                       << "\n";
        for (std::size_t u = 0; u < unique_count; ++u) {
            if (unique_outcomes[u].has_value()) {
                checkpoint_out << journalLine(spec_keys[u],
                                              *unique_outcomes[u])
                               << "\n";
            }
        }
        checkpoint_out.flush();
    }
    // Record one settled spec; call with progress_mutex held. A write
    // failure (injected via the report-write fault site or a real I/O
    // error) degrades the campaign to checkpoint-less instead of
    // killing it: the results in memory are still good.
    auto record_checkpoint = [&](std::size_t u,
                                 const RunOutcome &outcome) {
        if (!checkpoint_out.is_open())
            return;
        try {
            fault::maybeInject(fault::Site::ReportWrite);
        } catch (const fault::InjectedFault &f) {
            warn("checkpoint '", options.checkpoint,
                 "' disabled: ", f.what());
            checkpoint_out.close();
            obs::Registry::process()
                .counter("campaign.checkpoint.write_failures")
                .add();
            return;
        }
        checkpoint_out << journalLine(spec_keys[u], outcome) << "\n";
        if (!checkpoint_out) {
            warn("checkpoint '", options.checkpoint,
                 "' disabled: write error");
            checkpoint_out.close();
            obs::Registry::process()
                .counter("campaign.checkpoint.write_failures")
                .add();
            return;
        }
        obs::Registry::process()
            .counter("campaign.checkpoint.entries")
            .add();
        if (++checkpoint_unflushed >= options.checkpointEvery) {
            checkpoint_out.flush();
            checkpoint_unflushed = 0;
            obs::Registry::process()
                .counter("campaign.checkpoint.flushes")
                .add();
        }
    };

    // Workers pull unique specs heaviest first from one shared cursor
    // (ties keep plan order).
    std::vector<double> weight(unique_count);
    for (std::size_t u = 0; u < unique_count; ++u)
        weight[u] = specWeight(specs[uniqueIdx[u]], session_opt.config,
                               ua.numProgCounters);
    std::vector<std::size_t> queue(unique_count);
    std::iota(queue.begin(), queue.end(), std::size_t{0});
    std::stable_sort(queue.begin(), queue.end(),
                     [&](std::size_t a, std::size_t b) {
                         return weight[a] > weight[b];
                     });
    std::atomic<std::size_t> cursor{0};

    auto worker = [&](unsigned w) {
        auto worker_start = std::chrono::steady_clock::now();
        if (tracer)
            tracer->nameLane(w, "worker " + std::to_string(w));
        try {
            // A private machine + runner pair, set up once and marked
            // as the reset point. Every spec starts with a reset back
            // to that post-setup state, so an outcome cannot depend
            // on which worker ran it or which specs preceded it.
            sim::Machine machine(ua, session_opt.seed);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++constructed_;
            }
            core::Runner runner(machine, session_opt.mode);
            runner.countDecodesInto(decodes_);
            // The machine dies with this worker, before the
            // observers, so no detach is needed.
            if (options.observe)
                machine.setExecObserver(&observers[w]);
            if (options.machineSetup)
                options.machineSetup(runner);
            runner.markResetPoint();

            // unique_count means no work is left.
            auto next_unique = [&]() -> std::size_t {
                std::size_t k =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                return k < unique_count ? queue[k] : unique_count;
            };
            for (std::size_t u = next_unique(); u < unique_count;
                 u = next_unique()) {
                if (abort.load(std::memory_order_relaxed))
                    return;
                // Cooperative cancellation: stop picking up new work,
                // but break (not return) so this worker's phase and
                // timing accounting still folds into the report.
                if (cancel && cancel->cancelled())
                    break;
                // Slot pre-filled from a resume journal.
                if (unique_outcomes[u].has_value())
                    continue;
                if (options.progress) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    CampaignProgress event;
                    event.done = settled;
                    event.total = specs.size();
                    event.specKey = spec_keys[u];
                    event.specLabel = spec_labels[u];
                    event.starting = true;
                    options.progress(event);
                }
                if (tracer)
                    tracer->begin(w, spec_labels[u]);

                // One attempt: the worker-pickup fault site, then the
                // actual run. Reported as data, never an exception.
                auto attempt_once = [&]() -> RunOutcome {
                    try {
                        fault::maybeInject(fault::Site::WorkerPickup);
                    } catch (const fault::InjectedFault &f) {
                        return RunError{
                            RunError::Code::ExecutionError, f.what(),
                            f.transient()};
                    }
                    core::BenchmarkSpec resolved = specs[uniqueIdx[u]];
                    // The campaign-wide budget is applied post-dedup
                    // to the resolved copy only, so canonical keys
                    // (and every golden artifact keyed on them) are
                    // unaffected.
                    if (options.specBudget != 0 &&
                        resolved.cycleBudget == 0)
                        resolved.cycleBudget = options.specBudget;
                    if (resolved.config.empty())
                        resolved.config = session_opt.config;
                    runner.reset();
                    RunOutcome out =
                        runSpecOnRunner(runner, std::move(resolved));
                    worker_phases[w] += runner.phaseTimes();
                    return out;
                };

                // Transient failures (injected transient faults,
                // flaky external state) retry with bounded
                // exponential backoff; permanent ones fail fast.
                RunOutcome outcome = attempt_once();
                unsigned attempt = 0;
                while (!outcome.ok() && outcome.error().transient &&
                       attempt < options.maxRetries) {
                    ++attempt;
                    total_retries.fetch_add(1,
                                            std::memory_order_relaxed);
                    obs::Registry::process()
                        .counter("campaign.retries.attempted")
                        .add();
                    if (tracer)
                        tracer->instant(w, "retry");
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(
                            1u << std::min(attempt, 10u)));
                    outcome = attempt_once();
                }
                if (attempt > 0) {
                    obs::Registry::process()
                        .counter(outcome.ok()
                                     ? "campaign.retries.recovered"
                                     : "campaign.retries.exhausted")
                        .add();
                }
                unique_outcomes[u] = std::move(outcome);

                if (tracer)
                    tracer->end(w, spec_labels[u]);
                ++campaign.report.perWorkerSpecs[w];
                std::lock_guard<std::mutex> lock(progress_mutex);
                settled += multiplicity[u];
                record_checkpoint(u, *unique_outcomes[u]);
                if (options.progress) {
                    CampaignProgress event;
                    event.done = settled;
                    event.total = specs.size();
                    event.specKey = spec_keys[u];
                    event.specLabel = spec_labels[u];
                    event.starting = false;
                    options.progress(event);
                }
            }
            campaign.report.perWorkerSeconds[w] =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - worker_start)
                    .count();
        } catch (...) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            if (!failure)
                failure = std::current_exception();
            abort.store(true, std::memory_order_relaxed);
        }
    };

    if (jobs <= 1) {
        // One worker: run inline, no thread overhead.
        if (jobs == 1)
            worker(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned w = 0; w < jobs; ++w)
            threads.emplace_back(worker, w);
        for (auto &thread : threads)
            thread.join();
    }
    if (tracer)
        tracer->end(jobs, "campaign");
    if (failure)
        std::rethrow_exception(failure);

    if (checkpoint_out.is_open())
        checkpoint_out.flush();
    campaign.report.retries = total_retries.load();
    campaign.report.cancelled = cancel && cancel->cancelled();
    if (campaign.report.cancelled) {
        obs::Registry::process()
            .counter("campaign.cancelled")
            .add();
        if (tracer)
            tracer->instant(jobs, "cancelled");
    }

    for (const obs::PhaseTimes &pt : worker_phases)
        campaign.report.phaseTimes += pt;

    if (options.observe) {
        // Fold the per-worker observations into the process registry;
        // the -observe campaign path and the golden-invariance gate
        // read them back from a snapshot.
        obs::Registry &reg = obs::Registry::process();
        sim::ExecObserver total;
        for (const sim::ExecObserver &o : observers) {
            for (unsigned p = 0; p < sim::ExecObserver::kMaxPorts; ++p)
                total.portUops[p] += o.portUops[p];
            total.uopsIssued += o.uopsIssued;
            total.uopsDispatched += o.uopsDispatched;
            total.retireStallCycles += o.retireStallCycles;
            total.instructions += o.instructions;
            total.cycles += o.cycles;
        }
        reg.counter("campaign.observed.uops_issued")
            .add(total.uopsIssued);
        reg.counter("campaign.observed.uops_dispatched")
            .add(total.uopsDispatched);
        reg.counter("campaign.observed.retire_stall_cycles")
            .add(total.retireStallCycles);
        reg.counter("campaign.observed.instructions")
            .add(total.instructions);
        reg.counter("campaign.observed.cycles").add(total.cycles);
        for (unsigned p = 0; p < sim::ExecObserver::kMaxPorts; ++p) {
            reg.counter("campaign.observed.port_" + std::to_string(p) +
                        "_uops")
                .add(total.portUops[p]);
        }
    }

    // Resolve every input spec (duplicates share the unique outcome)
    // and fold the histogram.
    campaign.outcomes.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto &outcome = unique_outcomes[sourceOf[i]];
        if (!outcome.has_value()) {
            // Only cancellation legitimately leaves a slot empty
            // (worker exceptions rethrew above); back-fill a typed,
            // retryable error so the partial report stays total.
            NB_ASSERT(campaign.report.cancelled,
                      "campaign left spec ", i, " unexecuted");
            outcome = RunOutcome(RunError{
                RunError::Code::Cancelled,
                "campaign cancelled before this spec ran", true});
        }
        campaign.outcomes.push_back(*outcome);
        if (outcome->ok()) {
            ++campaign.report.okCount;
        } else {
            ++campaign.report.errorHistogram[static_cast<unsigned>(
                outcome->error().code)];
        }
    }

    campaign.report.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    campaign.report.telemetry = telemetry();
    return campaign;
}

} // namespace nb
