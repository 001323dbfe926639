/**
 * @file
 * Tests for the observability layer (src/obs/): metrics-registry
 * round-trips, trace-event well-formedness, execution-observer parity
 * (observation never perturbs measurement), and the predicted-vs-
 * observed consistency sweep across every modelled microarchitecture.
 */

#include <algorithm>
#include <map>
#include <gtest/gtest.h>

#include "analysis/bound.hh"
#include "core/campaign.hh"
#include "core/json.hh"
#include "obs/metrics.hh"
#include "obs/observe.hh"
#include "obs/trace.hh"
#include "uarch/uarch.hh"

namespace nb
{
namespace
{

using core::BenchmarkSpec;
using core::JsonCursor;
using core::Mode;

// --------------------------------------------------------- phases ----

TEST(PhaseTimes, ArithmeticAndTotal)
{
    obs::PhaseTimes a;
    a[obs::Phase::Codegen] = 100;
    a[obs::Phase::Execute] = 50;
    obs::PhaseTimes b;
    b[obs::Phase::Codegen] = 10;
    b[obs::Phase::Aggregate] = 5;

    obs::PhaseTimes sum = a;
    sum += b;
    EXPECT_EQ(sum[obs::Phase::Codegen], 110u);
    EXPECT_EQ(sum[obs::Phase::Execute], 50u);
    EXPECT_EQ(sum[obs::Phase::Aggregate], 5u);
    EXPECT_EQ(sum.totalNs(), 165u);
}

TEST(PhaseTimes, NamesRoundTrip)
{
    for (unsigned i = 0; i < obs::kNumPhases; ++i) {
        auto phase = static_cast<obs::Phase>(i);
        EXPECT_EQ(obs::phaseIndexFromName(obs::phaseName(phase)), i);
    }
    EXPECT_EQ(obs::phaseIndexFromName("not-a-phase"), obs::kNumPhases);
}

// ------------------------------------------------------- registry ----

/** A registry with one of everything, exercised enough that every
 *  serialized field is non-trivial. */
obs::RegistrySnapshot
populatedSnapshot()
{
    static obs::Registry registry;
    static bool populated = false;
    if (!populated) {
        populated = true;
        registry.counter("campaign.specs").add(7);
        registry.counter("campaign.errors");
        registry.gauge("engine.pool_size").set(3.5);
        auto &hist =
            registry.histogram("runner.phase.execute", {10.0, 100.0});
        hist.observe(5.0);
        hist.observe(50.0);
        hist.observe(5000.0); // overflow bucket
    }
    return registry.snapshot();
}

TEST(Registry, SnapshotSortsAndCounts)
{
    obs::RegistrySnapshot snap = populatedSnapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    // Sorted by name regardless of registration order.
    EXPECT_EQ(snap.counters[0].first, "campaign.errors");
    EXPECT_EQ(snap.counters[1].second, 7u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    ASSERT_EQ(snap.histograms[0].counts.size(), 3u);
    EXPECT_EQ(snap.histograms[0].counts[2], 1u);
    EXPECT_EQ(snap.histograms[0].totalCount(), 3u);
    EXPECT_DOUBLE_EQ(snap.histograms[0].sum, 5055.0);
}

TEST(Registry, JsonRoundTripIsExact)
{
    obs::RegistrySnapshot snap = populatedSnapshot();
    EXPECT_EQ(obs::RegistrySnapshot::fromJson(snap.toJson()), snap);
}

TEST(Registry, CsvRoundTripIsExact)
{
    obs::RegistrySnapshot snap = populatedSnapshot();
    EXPECT_EQ(obs::RegistrySnapshot::fromCsv(snap.toCsv()), snap);
}

TEST(Registry, ResetZeroesButKeepsInstruments)
{
    obs::Registry registry;
    registry.counter("c").add(4);
    auto &hist = registry.histogram("h", {1.0});
    hist.observe(0.5);
    registry.reset();
    obs::RegistrySnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].second, 0u);
    EXPECT_EQ(snap.histograms[0].totalCount(), 0u);
    // The pre-reset handle stays valid.
    registry.counter("c").add(1);
    EXPECT_EQ(registry.counter("c").value(), 1u);
}

// --------------------------------------------------------- tracer ----

/** The fields of one parsed trace event the tests assert on. */
struct ParsedEvent
{
    std::string name;
    std::string ph;
    double tid = -1;
    double ts = -1;
    bool hasTs = false;
};

/** Parse toJson() output back into events; fails the test on any
 *  structural problem (so the format stays Perfetto-loadable). */
std::vector<ParsedEvent>
parseTrace(const std::string &json)
{
    std::vector<ParsedEvent> events;
    JsonCursor cur(json);
    cur.expect('[');
    if (!cur.tryConsume(']')) {
        do {
            ParsedEvent ev;
            cur.expect('{');
            do {
                std::string key = cur.parseString();
                cur.expect(':');
                if (key == "name") {
                    ev.name = cur.parseString();
                } else if (key == "ph") {
                    ev.ph = cur.parseString();
                } else if (key == "tid") {
                    ev.tid = cur.parseNumber();
                } else if (key == "ts") {
                    ev.ts = cur.parseNumber();
                    ev.hasTs = true;
                } else {
                    cur.skipValue();
                }
            } while (cur.tryConsume(','));
            cur.expect('}');
            events.push_back(std::move(ev));
        } while (cur.tryConsume(','));
        cur.expect(']');
    }
    cur.expectEnd();
    return events;
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.begin(0, "span");
    tracer.end(0, "span");
    tracer.instant(1, "marker");
    tracer.nameLane(0, "lane");
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.toJson(), "[]\n");
}

TEST(Tracer, EventsAreWellFormedMonotonicAndPaired)
{
    obs::Tracer tracer;
    tracer.enable();
    tracer.nameLane(0, "worker 0");
    tracer.nameLane(1, "worker 1");
    tracer.begin(0, "outer", "specs", "2");
    tracer.begin(1, "other");
    tracer.begin(0, "inner");
    tracer.instant(1, "marker");
    tracer.end(0, "inner");
    tracer.end(1, "other");
    tracer.end(0, "outer");
    EXPECT_EQ(tracer.eventCount(), 9u);

    auto events = parseTrace(tracer.toJson());
    ASSERT_EQ(events.size(), 9u);

    // Timestamps are taken under the tracer lock, so they are
    // globally (hence per-lane) non-decreasing; B/E events nest
    // properly per lane; metadata events carry no timestamp.
    std::map<double, std::vector<std::string>> stacks;
    double last_ts = 0.0;
    for (const auto &ev : events) {
        EXPECT_FALSE(ev.name.empty());
        EXPECT_GE(ev.tid, 0);
        if (ev.ph == "M") {
            EXPECT_FALSE(ev.hasTs);
            EXPECT_EQ(ev.name, "thread_name");
            continue;
        }
        ASSERT_TRUE(ev.hasTs) << ev.name;
        EXPECT_GE(ev.ts, last_ts);
        last_ts = ev.ts;
        if (ev.ph == "B") {
            stacks[ev.tid].push_back(ev.name);
        } else if (ev.ph == "E") {
            ASSERT_FALSE(stacks[ev.tid].empty()) << ev.name;
            EXPECT_EQ(stacks[ev.tid].back(), ev.name);
            stacks[ev.tid].pop_back();
        } else {
            EXPECT_EQ(ev.ph, "i") << ev.name;
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unbalanced lane " << tid;
}

TEST(Tracer, ClearDropsEventsButStaysEnabled)
{
    obs::Tracer tracer;
    tracer.enable();
    tracer.instant(0, "x");
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_TRUE(tracer.enabled());
}

// ------------------------------------------------- observer parity ---

/** Observation must never perturb measurement: the same spec on two
 *  same-seed machines, one observed, yields bit-identical results. */
TEST(Observer, AttachedObserverDoesNotPerturbResults)
{
    const auto &ua = uarch::getMicroArch("Skylake");
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RBX; mov RCX, [R14]";
    spec.asmInit = "mov [R14], R14";
    spec.unrollCount = 25;
    spec.nMeasurements = 3;

    sim::Machine plain_machine(ua, 42);
    core::Runner plain_runner(plain_machine, Mode::Kernel);
    RunOutcome plain = runSpecOnRunner(plain_runner, spec);

    sim::Machine observed_machine(ua, 42);
    core::Runner observed_runner(observed_machine, Mode::Kernel);
    sim::ExecObserver observer;
    observed_machine.setExecObserver(&observer);
    RunOutcome observed = runSpecOnRunner(observed_runner, spec);
    observed_machine.setExecObserver(nullptr);

    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(observed.ok());
    EXPECT_EQ(plain.result().toJson(), observed.result().toJson());
    EXPECT_EQ(plain_runner.lastRunCycles(),
              observed_runner.lastRunCycles());

    // ...and the observer actually saw the execution.
    EXPECT_GT(observer.uopsIssued, 0u);
    EXPECT_GT(observer.uopsDispatched, 0u);
    EXPECT_GT(observer.cycles, 0u);
    std::uint64_t port_total = 0;
    for (std::uint64_t uops : observer.portUops)
        port_total += uops;
    EXPECT_GT(port_total, 0u);
}

// ------------------------------------------------ observed profile ---

obs::ObservedProfile
observedAddChain(const std::string &uarch)
{
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.unrollCount = 20;
    spec.nMeasurements = 3;
    spec.warmUpCount = 1;
    return obs::observeSpec(uarch::getMicroArch(uarch), spec);
}

TEST(ObservedProfile, JsonRoundTripIsExact)
{
    obs::ObservedProfile profile = observedAddChain("Skylake");
    EXPECT_GT(profile.copies, 0u);
    EXPECT_EQ(obs::ObservedProfile::fromJson(profile.toJson()),
              profile);
}

TEST(ObservedProfile, CsvRoundTripIsExact)
{
    obs::ObservedProfile profile = observedAddChain("Skylake");
    EXPECT_EQ(obs::ObservedProfile::fromCsv(profile.toCsv()), profile);
}

TEST(ObservedProfile, FormatSideBySideMentionsBothSides)
{
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    const auto &ua = uarch::getMicroArch("Skylake");
    analysis::BoundReport bounds = analysis::analyzeBounds(ua, spec);
    obs::ObservedProfile profile = observedAddChain("Skylake");
    std::string text = obs::formatPredictedVsObserved(bounds, profile);
    EXPECT_NE(text.find("predicted bottleneck"), std::string::npos);
    EXPECT_NE(text.find("observed"), std::string::npos);
    EXPECT_NE(text.find("p0"), std::string::npos);
}

// -------------------------------------- predicted vs observed sweep --

/** The three workload shapes of the acceptance sweep. */
const std::pair<const char *, const char *> kSweepSpecs[] = {
    {"latency-chain", "add RAX, RAX"},
    {"throughput",
     "add RAX, RAX; add RBX, RBX; add RCX, RCX; add RDX, RDX"},
    {"lea-mix",
     "lea RAX, [RBX+8*RCX]; lea RDX, [RSI+RDI]; add R8, R9"},
};

/**
 * On every modelled microarchitecture, the dispatch loop's observed
 * per-port µop pressure must agree with the static bound model: same
 * total µops per copy, pressure only on ports the model binds, and
 * issue utilization within the machine's width.
 */
TEST(PredictedVsObserved, ConsistentAcrossAllUarches)
{
    for (const std::string &name : uarch::allMicroArchNames()) {
        const auto &ua = uarch::getMicroArch(name);
        for (const auto &[label, body] : kSweepSpecs) {
            SCOPED_TRACE(name + " / " + label);
            BenchmarkSpec spec;
            spec.asmCode = body;
            spec.unrollCount = 20;
            spec.nMeasurements = 3;
            spec.warmUpCount = 1;
            // Without any configured or fixed counters no measurement
            // round executes at all (and there is nothing to observe)
            // -- Zen has no fixed-function counters, so give every
            // uarch its stock event file, like a real campaign would.
            spec.config = core::CounterConfig::forMicroArch(name);

            analysis::BoundReport bounds =
                analysis::analyzeBounds(ua, spec);
            obs::ObservedProfile profile = obs::observeSpec(ua, spec);

            ASSERT_GT(profile.copies, 0u);
            EXPECT_EQ(profile.issueWidth, ua.issueWidth);

            // Total dispatched port µops per copy == the model's
            // per-copy µop count (both sides count post-fusion µops).
            double predicted_uops = 0.0;
            for (const auto &use : bounds.ports)
                predicted_uops += use.uops;
            EXPECT_NEAR(profile.totalPortUops(), predicted_uops,
                        0.05 * std::max(1.0, predicted_uops));
            EXPECT_NEAR(profile.uopsDispatched, bounds.uopsPerCopy,
                        0.05 * std::max(1.0, bounds.uopsPerCopy));

            // Port bindings: pressure lands only on ports the model
            // binds, and every substantially-bound port sees some.
            // (The exact split can differ where an op has many
            // eligible ports -- the model spreads evenly, the
            // dispatcher greedily -- so the per-port comparison is a
            // binding check, not an equality check.)
            std::vector<double> predicted(profile.portUops.size(), 0.0);
            for (const auto &use : bounds.ports) {
                if (use.port < predicted.size())
                    predicted[use.port] = use.uops;
            }
            for (std::size_t p = 0; p < profile.portUops.size(); ++p) {
                SCOPED_TRACE("port " + std::to_string(p));
                if (predicted[p] == 0.0) {
                    EXPECT_LE(profile.portUops[p], 0.05);
                } else if (predicted[p] >= 0.25) {
                    EXPECT_GT(profile.portUops[p], 0.0);
                }
            }

            // The run roughly respects its own bound (pre-Haswell
            // models overlap the dependency chain with the readout
            // code slightly more, hence the slack), and the machine
            // can't issue beyond its width.
            EXPECT_GE(profile.cycles, 0.80 * bounds.bound());
            EXPECT_LE(profile.issueUtilization, 1.01);
            EXPECT_GE(profile.issueUtilization, 0.0);
        }
    }
}

// ------------------------------------------- campaign integration ----

std::vector<BenchmarkSpec>
campaignSpecs()
{
    std::vector<BenchmarkSpec> specs;
    for (const char *body :
         {"add RAX, RAX", "mov RBX, [R14]", "nop; nop", "add RCX, 1"}) {
        BenchmarkSpec spec;
        spec.asmCode = body;
        spec.asmInit = "mov [R14], R14";
        spec.unrollCount = 10;
        spec.nMeasurements = 3;
        spec.warmUpCount = 0;
        specs.push_back(spec);
    }
    return specs;
}

TEST(CampaignObservability, ReportCarriesWorkerAndPhaseTimes)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto campaign = engine.runCampaign(campaignSpecs(), opt);

    ASSERT_EQ(campaign.report.perWorkerSeconds.size(), 2u);
    for (double seconds : campaign.report.perWorkerSeconds)
        EXPECT_GE(seconds, 0.0);
    // Executing anything spends time in at least the execute phase.
    EXPECT_GT(campaign.report.phaseTimes[obs::Phase::Execute], 0u);

    // The new fields survive the JSON round-trip exactly.
    CampaignReport parsed =
        CampaignReport::fromJson(campaign.report.toJson());
    EXPECT_EQ(parsed.perWorkerSeconds,
              campaign.report.perWorkerSeconds);
    EXPECT_EQ(parsed.phaseTimes, campaign.report.phaseTimes);
    EXPECT_EQ(parsed.toCsv(), campaign.report.toCsv());
}

TEST(CampaignObservability, TraceCoversCampaignAndEverySpec)
{
    Engine engine;
    obs::Tracer tracer;
    tracer.enable();
    CampaignOptions opt;
    opt.jobs = 2;
    opt.trace = &tracer;
    auto specs = campaignSpecs();
    engine.runCampaign(specs, opt);

    auto events = parseTrace(tracer.toJson());
    unsigned campaign_begin = 0;
    unsigned campaign_end = 0;
    unsigned spec_begin = 0;
    for (const auto &ev : events) {
        if (ev.name == "campaign" && ev.ph == "B")
            ++campaign_begin;
        if (ev.name == "campaign" && ev.ph == "E")
            ++campaign_end;
        if (ev.ph == "B" && ev.name != "campaign")
            ++spec_begin;
    }
    EXPECT_EQ(campaign_begin, 1u);
    EXPECT_EQ(campaign_end, 1u);
    EXPECT_EQ(spec_begin, specs.size());
}

/** Golden invariance: tracing + observation leave every outcome
 *  bit-identical to a plain run (fresh engines, same seed). */
TEST(CampaignObservability, TracingAndObservationNeverChangeOutcomes)
{
    auto specs = campaignSpecs();

    Engine plain_engine;
    CampaignOptions plain_opt;
    plain_opt.jobs = 2;
    auto plain = plain_engine.runCampaign(specs, plain_opt);

    Engine observed_engine;
    obs::Tracer tracer;
    tracer.enable();
    CampaignOptions observed_opt;
    observed_opt.jobs = 2;
    observed_opt.trace = &tracer;
    observed_opt.observe = true;
    auto observed = observed_engine.runCampaign(specs, observed_opt);

    ASSERT_EQ(plain.outcomes.size(), observed.outcomes.size());
    for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
        ASSERT_TRUE(plain.outcomes[i].ok()) << i;
        ASSERT_TRUE(observed.outcomes[i].ok()) << i;
        EXPECT_EQ(plain.outcomes[i].result().toJson(),
                  observed.outcomes[i].result().toJson())
            << i;
    }

    // The observed run folded its totals into the process registry.
    EXPECT_GT(obs::Registry::process()
                  .counter("campaign.observed.uops_dispatched")
                  .value(),
              0u);
}

} // namespace
} // namespace nb
