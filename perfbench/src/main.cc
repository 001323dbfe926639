/**
 * @file
 * End-to-end benchmark of the artifacts users wait on.
 *
 *   perfbench_e2e --workload table|profile|batch --seed N --seconds S
 *                 --trace 0|1 --configs DIR [--trace-file PATH]
 *   perfbench_e2e --selftest --configs DIR
 *
 * One process per run. A run repeats passes of its workload until the
 * time budget is spent; every pass builds each of the workload's units
 * (one artifact per uarch) on a fresh Engine with a fixed worker count,
 * through the same public plan -> Engine::runCampaign -> decode steps
 * that uops::buildInstructionTable and profile::buildMachineProfile
 * take. Every output is checked (byte-compare against the committed
 * goldens, or history-independent invariants for the generated batch).
 *
 * --trace 0 prints the end-to-end metrics (medians over passes). With
 * --trace 1 passes alternate untraced / traced -- traced passes record
 * spans and attach the execution observer -- and the run prints the
 * per-layer metrics, layer probes included, and writes the spans.
 * The last stdout line is one JSON object (correct/attempted/failed/
 * metrics).
 */

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/campaign.hh"
#include "generator.hh"
#include "obs/metrics.hh"
#include "probes.hh"
#include "profile/build.hh"
#include "spans.hh"
#include "uops/table.hh"
#include "x86/assembler.hh"

namespace perfbench
{
namespace
{

using nb::CampaignOptions;
using nb::CampaignResult;
using nb::RunOutcome;
using nb::core::BenchmarkSpec;

/** Campaign workers: fixed, >= 2 so scheduling shows, <= the 4 cores
 *  of the reference host. */
constexpr unsigned kJobs = 2;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        nb::fatal("cannot read '", path, "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::uint64_t
registryCounter(const std::string &name)
{
    return nb::obs::Registry::process().counter(name).value();
}

/**
 * Byte-compare an artifact with <configs>/golden_<kind>_<uarch>.json.
 * Each golden file is read once per process, by the first check, which
 * runs outside the timed part of a unit. Returns the failure count.
 */
std::size_t
compareGolden(const std::string &configs, const std::string &kind,
              const std::string &uarch, const std::string &serialized,
              std::string &why)
{
    static std::map<std::string, std::string> cache;
    std::string path =
        configs + "/golden_" + kind + "_" + lower(uarch) + ".json";
    auto [it, fresh] = cache.try_emplace(path);
    if (fresh)
        it->second = readFile(path);
    if (serialized == it->second)
        return 0;
    why = kind + " differs from " + path;
    return 1;
}

// ------------------------------------------------------------ workloads --

/**
 * One workload's per-unit steps. A unit is one artifact build on one
 * uarch: plan (with its Engine session, if any) -> campaign ->
 * decode -> serialize, then an output check outside the timed part.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Open the unit's first machine, if the planner needs one. */
    virtual void open(nb::Engine &engine, const std::string &uarch) = 0;
    /** Plan the campaign input and fill the workload's options. */
    virtual std::vector<BenchmarkSpec> plan(const std::string &uarch,
                                            CampaignOptions &opt) = 0;
    /** Fold outcomes into the artifact. */
    virtual void decode(const CampaignResult &campaign) = 0;
    /** The artifact as users write it. */
    virtual std::string serialize() = 0;
    /** Release the machine opened by open(). */
    virtual void close() {}
    /** Failed checks of the unit's output (operations in checks()). */
    virtual std::size_t check(const std::string &uarch,
                              const std::vector<BenchmarkSpec> &specs,
                              const CampaignResult &campaign,
                              const std::string &serialized,
                              std::string &why) = 0;
    virtual std::size_t checks(const std::vector<BenchmarkSpec> &specs) = 0;
};

/** Golden-equivalent instruction table (-characterize -fresh_machine). */
class TableWorkload : public Workload
{
  public:
    explicit TableWorkload(std::string configs) : configs_(std::move(configs))
    {
    }

    void
    open(nb::Engine &engine, const std::string &uarch) override
    {
        nb::SessionOptions opt;
        opt.uarch = uarch;
        session_.emplace(engine.session(opt));
    }

    std::vector<BenchmarkSpec>
    plan(const std::string &, CampaignOptions &opt) override
    {
        nb::uops::Characterizer tool(*session_);
        plan_ = tool.plan();
        opt.session = session_->options();
        opt.freshMachinePerSpec = true;
        opt.specBudget = nb::kBuilderSpecBudget;
        return nb::uops::Characterizer::planSpecs(plan_);
    }

    void
    decode(const CampaignResult &campaign) override
    {
        table_ = {};
        table_.uarch = session_->uarch();
        table_.mode = nb::core::modeName(session_->mode());
        table_.rows = nb::uops::Characterizer::decode(plan_, campaign.outcomes);
    }

    std::string serialize() override { return table_.toJson(); }
    void close() override { session_.reset(); }

    std::size_t
    check(const std::string &uarch, const std::vector<BenchmarkSpec> &,
          const CampaignResult &, const std::string &serialized,
          std::string &why) override
    {
        return compareGolden(configs_, "table", uarch, serialized, why);
    }

    std::size_t checks(const std::vector<BenchmarkSpec> &) override
    {
        return 1;
    }

  private:
    std::string configs_;
    std::optional<nb::Session> session_;
    nb::uops::CharacterizationPlan plan_;
    nb::uops::InstructionTable table_;
};

/** Golden-equivalent machine profile (-profile). */
class ProfileWorkload : public Workload
{
  public:
    explicit ProfileWorkload(std::string configs)
        : configs_(std::move(configs))
    {
    }

    void open(nb::Engine &, const std::string &) override {}

    std::vector<BenchmarkSpec>
    plan(const std::string &uarch, CampaignOptions &opt) override
    {
        nb::profile::ProfileOptions popt;
        popt.session.uarch = uarch;
        popt.jobs = kJobs;
        plan_ = nb::profile::planMachineProfile(popt);
        opt.session = popt.session;
        opt.freshMachinePerSpec = popt.freshMachinePerSpec;
        opt.specBudget = nb::kBuilderSpecBudget;
        nb::profile::ProfilePlan shim;
        shim.r14Size = plan_.r14Size;
        shim.disablePrefetchers = plan_.disablePrefetchers;
        opt.machineSetup = [shim](nb::core::Runner &runner) {
            nb::profile::prepareProfileMachine(runner, shim);
        };
        return plan_.specs;
    }

    void
    decode(const CampaignResult &campaign) override
    {
        profile_ = nb::profile::decodeMachineProfile(plan_, campaign.outcomes);
    }

    std::string serialize() override { return profile_.toJson(); }

    std::size_t
    check(const std::string &uarch, const std::vector<BenchmarkSpec> &,
          const CampaignResult &, const std::string &serialized,
          std::string &why) override
    {
        return compareGolden(configs_, "profile", uarch, serialized, why);
    }

    std::size_t checks(const std::vector<BenchmarkSpec> &) override
    {
        return 1;
    }

  private:
    std::string configs_;
    nb::profile::ProfilePlan plan_;
    nb::profile::MachineProfile profile_;
};

/** Seeded generated campaign on pooled workers, dedup on. */
class BatchWorkload : public Workload
{
  public:
    explicit BatchWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    open(nb::Engine &engine, const std::string &uarch) override
    {
        nb::SessionOptions opt;
        opt.uarch = uarch;
        session_.emplace(engine.session(opt));
    }

    std::vector<BenchmarkSpec>
    plan(const std::string &, CampaignOptions &opt) override
    {
        opt.session = session_->options();
        return generateBatch(
            nb::uops::Characterizer(*session_).variantCatalog(), seed_);
    }

    /** One JSON result (or error message) per input spec, as the CLI
     *  prints a -json batch. */
    void
    decode(const CampaignResult &campaign) override
    {
        rows_.clear();
        rows_.reserve(campaign.outcomes.size());
        for (const RunOutcome &outcome : campaign.outcomes)
            rows_.push_back(outcome.ok() ? outcome.result().toJson()
                                         : outcome.error().message);
    }

    std::string
    serialize() override
    {
        std::string out;
        for (const std::string &row : rows_)
            out += row;
        return out;
    }

    void close() override { session_.reset(); }

    std::size_t
    check(const std::string &uarch, const std::vector<BenchmarkSpec> &specs,
          const CampaignResult &campaign, const std::string &,
          std::string &why) override
    {
        const auto &ua = nb::uarch::getMicroArch(uarch);
        std::size_t failed = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::string bad =
                checkBatchResult(ua, specs[i], campaign.outcomes[i]);
            if (!bad.empty() && failed++ == 0)
                why = "batch spec '" + specs[i].asmCode + "': " + bad;
        }
        return failed;
    }

    std::size_t
    checks(const std::vector<BenchmarkSpec> &specs) override
    {
        return specs.size();
    }

  private:
    std::uint64_t seed_;
    std::optional<nb::Session> session_;
    std::vector<std::string> rows_;
};

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> uarches;
    /** What planner.plan_s / planner.decode_s time on this workload. */
    std::string planLayer;
    std::string decodeLayer;
};

/** Why these: see perfbench/README.md. */
const std::vector<WorkloadDef> kWorkloads = {
    // Flush path + per-spec machine construction; Skylake carries the
    // 10xWBINVD straggler, Westmere a Nehalem-family port layout.
    {"table", {"Skylake", "Broadwell", "Westmere"}, "uops.plan_s",
     "uops.decode_s"},
    // Access/replacement path: one uarch without set dueling, one with.
    {"profile", {"Skylake", "Broadwell"}, "profile.plan_s",
     "profile.decode_s"},
    // Runner pipeline + dedup; bypasses flush, deep misses, construction.
    {"batch", {"Skylake"}, "batch.gen_s", "batch.decode_s"},
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &configs,
             std::uint64_t seed)
{
    if (name == "table")
        return std::make_unique<TableWorkload>(configs);
    if (name == "profile")
        return std::make_unique<ProfileWorkload>(configs);
    return std::make_unique<BatchWorkload>(seed);
}

// -------------------------------------------------------------- one unit --

/** Everything measured about one unit build. */
struct UnitSample
{
    bool traced = false;
    double wallS = 0;
    double cpuS = 0;
    double setupS = 0;
    double planS = 0;
    double decodeS = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string why;
    nb::CampaignReport report;
    std::uint64_t assembleMisses = 0;
    std::uint64_t simInstructions = 0;
    std::uint64_t simCycles = 0;
    std::vector<double> specMs;
};

UnitSample
runUnit(Workload &workload, const std::string &workload_name,
        const std::string &uarch, SpanRecorder *spans, std::uint64_t unit)
{
    UnitSample s;
    s.traced = spans != nullptr;
    std::uint64_t asm_misses = nb::assembleCacheCounters().misses;
    std::uint64_t insns = registryCounter("campaign.observed.instructions");
    std::uint64_t cycles = registryCounter("campaign.observed.cycles");
    std::size_t first_span = spans ? spans->size() : 0;

    std::optional<Clock::time_point> first_pickup;
    std::uint64_t campaign_span = 0;
    CampaignOptions opt;
    opt.jobs = kJobs;
    opt.observe = s.traced;
    opt.progress = [&](const nb::CampaignProgress &event) {
        // Called under the campaign's progress mutex.
        if (event.starting && !first_pickup)
            first_pickup = Clock::now();
        if (spans)
            spans->specEvent(event, campaign_span, unit);
    };

    ScopedSpan root(spans, "workload", workload_name + ":" + uarch, 0, unit);
    auto start = Clock::now();
    double cpu_start = cpuSeconds();
    std::vector<BenchmarkSpec> specs;
    std::optional<CampaignResult> campaign;
    std::string serialized;
    auto engine = std::make_unique<nb::Engine>();
    {
        ScopedSpan span(spans, "engine", "engine", root.id(), unit);
        workload.open(*engine, uarch);
    }
    {
        auto t = Clock::now();
        ScopedSpan span(spans, "plan", "plan", root.id(), unit);
        specs = workload.plan(uarch, opt);
        s.planS = secondsBetween(t, Clock::now());
    }
    {
        ScopedSpan span(spans, "campaign", "campaign", root.id(), unit);
        campaign_span = span.id();
        if (spans)
            spans->resetLanes();
        campaign.emplace(engine->runCampaign(specs, opt));
    }
    {
        auto t = Clock::now();
        ScopedSpan span(spans, "decode", "decode", root.id(), unit);
        workload.decode(*campaign);
        s.decodeS = secondsBetween(t, Clock::now());
    }
    {
        ScopedSpan span(spans, "serialize", "serialize", root.id(), unit);
        serialized = workload.serialize();
    }
    {
        // Users pay for releasing the machines and cached programs too.
        ScopedSpan span(spans, "teardown", "teardown", root.id(), unit);
        workload.close();
        engine.reset();
    }
    auto end = Clock::now();
    s.wallS = secondsBetween(start, end);
    s.cpuS = cpuSeconds() - cpu_start;
    s.setupS = secondsBetween(start, first_pickup.value_or(end));
    {
        ScopedSpan span(spans, "check", "check", root.id(), unit);
        std::size_t bad_checks =
            workload.check(uarch, specs, *campaign, serialized, s.why);
        std::size_t bad_runs = specs.size() - campaign->report.okCount;
        s.attempted = specs.size() + workload.checks(specs);
        s.failed = bad_runs + bad_checks;
        if (bad_runs && s.why.empty())
            s.why = std::to_string(bad_runs) + " spec(s) failed";
    }
    s.report = std::move(campaign->report);
    s.assembleMisses = nb::assembleCacheCounters().misses - asm_misses;
    s.simInstructions =
        registryCounter("campaign.observed.instructions") - insns;
    s.simCycles = registryCounter("campaign.observed.cycles") - cycles;
    if (spans)
        s.specMs = spans->specDurationsMs(first_span);
    return s;
}

// ------------------------------------------------------------- metrics --

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

/** Per-unit samples of a run, grouped by uarch. */
class Samples
{
  public:
    explicit Samples(std::vector<std::string> uarches)
        : uarches_(std::move(uarches))
    {
    }

    void add(const std::string &uarch, UnitSample s)
    {
        byUarch_[uarch].push_back(std::move(s));
    }

    /** Sum over uarches of the median over the chosen samples. */
    template <typename Get>
    double
    sum(bool traced, Get get) const
    {
        double total = 0;
        for (const auto &u : uarches_)
            total += medianOf(u, traced, get);
        return total;
    }

    /** Sum over uarches of the first sample (the process's cold pass). */
    template <typename Get>
    double
    first(Get get) const
    {
        double total = 0;
        for (const auto &u : uarches_)
            total += static_cast<double>(get(byUarch_.at(u).front()));
        return total;
    }

    /** Mean over uarches of the median over the chosen samples. */
    template <typename Get>
    double
    mean(bool traced, Get get) const
    {
        return sum(traced, get) / static_cast<double>(uarches_.size());
    }

    std::vector<double>
    specMs() const
    {
        std::vector<double> out;
        for (const auto &[u, list] : byUarch_)
            for (const UnitSample &s : list)
                out.insert(out.end(), s.specMs.begin(), s.specMs.end());
        return out;
    }

  private:
    template <typename Get>
    double
    medianOf(const std::string &uarch, bool traced, Get get) const
    {
        std::vector<double> v;
        for (const UnitSample &s : byUarch_.at(uarch))
            if (s.traced == traced)
                v.push_back(static_cast<double>(get(s)));
        return nb::median(v);
    }

    std::vector<std::string> uarches_;
    std::map<std::string, std::vector<UnitSample>> byUarch_;
};

double
phaseS(const UnitSample &s, nb::obs::Phase p)
{
    return static_cast<double>(s.report.phaseTimes.ns[static_cast<unsigned>(
               p)]) /
           1e9;
}

double
busyS(const UnitSample &s)
{
    double busy = 0;
    for (double w : s.report.perWorkerSeconds)
        busy += w;
    return busy;
}

std::vector<Metric>
endToEndMetrics(const Samples &samples, std::size_t attempted,
                std::size_t failed)
{
    return {
        {"wall_s", samples.sum(false, [](auto &s) { return s.wallS; }), "s"},
        {"cpu_s", samples.sum(false, [](auto &s) { return s.cpuS; }), "s"},
        {"setup_s", samples.sum(false, [](auto &s) { return s.setupS; }),
         "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_ratio",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
    };
}

std::vector<Metric>
perLayerMetrics(const Samples &samples, const std::vector<ProbeResult> &probes)
{
    using nb::obs::Phase;
    auto sum = [&](auto get) { return samples.sum(true, get); };
    double busy = sum(busyS);
    double idle = sum([](const UnitSample &s) {
        return s.report.jobs * s.report.wallSeconds - busyS(s);
    });
    double imbalance = samples.mean(true, [](const UnitSample &s) {
        double max = 0;
        for (double w : s.report.perWorkerSeconds)
            max = std::max(max, w);
        return max * s.report.jobs / busyS(s);
    });
    std::vector<double> spec_ms = samples.specMs();
    double phases_total = 0;
    double execute = 0;
    std::vector<Metric> out = {
        {"campaign.busy_s", busy, "s"},
        {"campaign.idle_s", idle, "s"},
        {"campaign.imbalance", imbalance, "ratio"},
        {"campaign.spec_ms.p50", percentile(spec_ms, 0.50), "ms"},
        {"campaign.spec_ms.p99", percentile(spec_ms, 0.99), "ms"},
        {"campaign.spec_ms.max", percentile(spec_ms, 1.0), "ms"},
        {"campaign.unique_specs",
         sum([](const UnitSample &s) { return s.report.uniqueSpecs; }),
         "count"},
        {"campaign.dedup_hits",
         sum([](const UnitSample &s) { return s.report.cacheHits; }),
         "count"},
    };
    for (Phase p : {Phase::Codegen, Phase::Assemble, Phase::Decode,
                    Phase::Execute, Phase::Aggregate}) {
        double v = sum([p](const UnitSample &s) { return phaseS(s, p); });
        phases_total += v;
        if (p == Phase::Execute)
            execute = v;
        out.push_back({std::string("runner.") + nb::obs::phaseName(p) + "_s",
                       v, "s"});
    }
    double insns = sum([](const UnitSample &s) { return s.simInstructions; });
    auto probe_mean = [&](double ProbeResult::*field) {
        double total = 0;
        for (const ProbeResult &p : probes)
            total += p.*field;
        return total / static_cast<double>(probes.size());
    };
    std::vector<Metric> rest = {
        {"runner.unphased_s", busy - phases_total, "s"},
        {"engine.program_cache.misses",
         sum([](const UnitSample &s) {
             return s.report.telemetry.program.misses;
         }),
         "count"},
        // The assembly memo is process-wide: only a process's first
        // pass parses, which is what a one-shot CLI user pays.
        {"engine.assemble_cache.misses",
         samples.first([](const UnitSample &s) { return s.assembleMisses; }),
         "count"},
        {"planner.plan_s", sum([](const UnitSample &s) { return s.planS; }),
         "s"},
        {"planner.decode_s",
         sum([](const UnitSample &s) { return s.decodeS; }), "s"},
        {"profile.plan_s", probe_mean(&ProbeResult::profilePlanS), "s"},
        {"sim.instructions", insns, "count"},
        {"sim.cycles",
         sum([](const UnitSample &s) { return s.simCycles; }), "count"},
        {"sim.minsn_per_s", insns / execute / 1e6, "Minsn/s"},
        {"sim.construct_ms", probe_mean(&ProbeResult::constructMs), "ms"},
        {"sim.execute_minsn_per_s",
         probe_mean(&ProbeResult::executeMinsnPerS), "Minsn/s"},
        {"cache.wbinvd_us", probe_mean(&ProbeResult::wbinvdUs), "us"},
        {"cache.access_hit_ns", probe_mean(&ProbeResult::accessHitNs), "ns"},
        {"cache.access_miss_ns", probe_mean(&ProbeResult::accessMissNs),
         "ns"},
        {"tlb.access_ns", probe_mean(&ProbeResult::tlbAccessNs), "ns"},
        {"obs.trace_overhead",
         samples.sum(true, [](const UnitSample &s) { return s.wallS; }) /
             samples.sum(false, [](const UnitSample &s) { return s.wallS; }),
         "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

// ----------------------------------------------------------------- run --

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
    std::string configs = "configs";
    std::string traceFile;
};

int
runBenchmark(const Args &args)
{
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (w.name == args.workload)
            def = &w;
    if (!def) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    auto workload = makeWorkload(def->name, args.configs, args.seed);
    SpanRecorder recorder;
    auto run_start = Clock::now();

    std::vector<ProbeResult> probes;
    if (args.trace) {
        for (const std::string &u : def->uarches) {
            ScopedSpan span(&recorder, "probe", "probes:" + u, 0, 0);
            probes.push_back(runProbes(nb::uarch::getMicroArch(u)));
        }
    }

    // Passes until the budget is spent (at least one; with tracing at
    // least one untraced and one traced, alternating).
    Samples samples(def->uarches);
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string first_failure;
    std::uint64_t unit = 0;
    double longest_pass = 0;
    std::size_t min_passes = args.trace ? 2 : 1;
    for (std::size_t pass = 0;; ++pass) {
        double elapsed = secondsBetween(run_start, Clock::now());
        if (pass >= min_passes && elapsed + longest_pass > args.seconds)
            break;
        bool traced = args.trace && pass % 2 == 1;
        auto pass_start = Clock::now();
        for (const std::string &u : def->uarches) {
            UnitSample s = runUnit(*workload, def->name, u,
                                   traced ? &recorder : nullptr, ++unit);
            std::cerr << "pass " << pass << (traced ? " traced " : " ")
                      << u << ": wall " << s.wallS << " s, cpu " << s.cpuS
                      << " s, setup " << s.setupS << " s\n";
            attempted += s.attempted;
            failed += s.failed;
            if (!s.why.empty() && first_failure.empty())
                first_failure = u + ": " + s.why;
            samples.add(u, std::move(s));
        }
        longest_pass = std::max(longest_pass,
                                secondsBetween(pass_start, Clock::now()));
    }

    std::vector<Metric> metrics =
        args.trace ? perLayerMetrics(samples, probes)
                   : endToEndMetrics(samples, attempted, failed);
    for (const Metric &m : metrics) {
        std::cout << def->name << "." << m.name << " = "
                  << nb::core::exactDouble(m.value) << " " << m.unit;
        if (m.name == "planner.plan_s")
            std::cout << "  (" << def->planLayer << ")";
        if (m.name == "planner.decode_s")
            std::cout << "  (" << def->decodeLayer << ")";
        std::cout << "\n";
    }
    std::cout << def->name << ".error_ratio = "
              << nb::core::exactDouble(static_cast<double>(failed) /
                                       static_cast<double>(attempted))
              << " (" << failed << " of " << attempted << " operations)\n";
    if (!first_failure.empty())
        std::cout << "first failure: " << first_failure << "\n";
    if (args.trace && !args.traceFile.empty() &&
        !recorder.writeChromeTrace(args.traceFile)) {
        std::cerr << "cannot write trace '" << args.traceFile << "'\n";
        return 2;
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << nb::core::exactDouble(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}

// ------------------------------------------------------------ selftest --

int
selftest()
{
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
        failures += ok ? 0 : 1;
    };

    nb::Engine engine;
    nb::Session session = engine.session({});
    auto catalog = nb::uops::Characterizer(session).variantCatalog();
    auto keys = [&](std::uint64_t seed) {
        std::vector<std::string> out;
        for (const BenchmarkSpec &spec : generateBatch(catalog, seed))
            out.push_back(nb::core::specCanonicalKey(spec));
        return out;
    };
    auto a = keys(7);
    expect(a == keys(7), "generator: same seed gives the same specs");
    expect(a != keys(8), "generator: another seed gives other specs");
    expect(a.size() == kBatchSpecs, "generator: kBatchSpecs specs");
    std::size_t dups = a.size() - std::set<std::string>(a.begin(), a.end()).size();
    double share = static_cast<double>(dups) / static_cast<double>(a.size());
    expect(share > 0.1 && share < 0.3, "generator: ~20% exact duplicates");

    bool bodies_ok = true;
    for (const BenchmarkSpec &spec : generateBatch(catalog, 7)) {
        auto body = nb::x86::assemble(spec.asmCode);
        bodies_ok &= body.size() >= 1 && body.size() <= 6;
        for (const auto &insn : body)
            bodies_ok &= !insn.info().privileged && !insn.isBranch();
    }
    expect(bodies_ok, "generator: 1-6 unprivileged, branch-free insns");

    ProbeResult p = runProbes(nb::uarch::getMicroArch("Skylake"));
    for (double v : {p.constructMs, p.executeMinsnPerS, p.wbinvdUs,
                     p.accessHitNs, p.accessMissNs, p.tlbAccessNs,
                     p.profilePlanS}) {
        expect(std::isfinite(v) && v > 0,
               "probe value " + nb::core::exactDouble(v) +
                   " is finite and > 0");
    }
    return failures == 0 ? 0 : 1;
}

int
parseAndRun(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                nb::fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--workload")
            args.workload = value();
        else if (arg == "--seed")
            args.seed = std::stoull(value());
        else if (arg == "--seconds")
            args.seconds = std::stod(value());
        else if (arg == "--trace")
            args.trace = value() != "0";
        else if (arg == "--trace-file")
            args.traceFile = value();
        else if (arg == "--configs")
            args.configs = value();
        else if (arg == "--selftest")
            args.selftest = true;
        else
            nb::fatal("unknown argument '", arg, "'");
    }
    nb::setQuiet(true);
    return args.selftest ? selftest() : runBenchmark(args);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::parseAndRun(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
