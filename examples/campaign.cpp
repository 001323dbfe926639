/**
 * @file
 * Campaign: run a uops.info-style batch of benchmarks (§V) across a
 * pool of worker threads with a progress callback.
 *
 * Builds a small instruction-latency campaign (with some deliberate
 * duplicates and one failing spec), fans it out over 4 workers -- each
 * worker resets its own machine before every spec, so results are
 * deterministic for any worker count and come back in input order --
 * and prints the per-spec outcomes plus the
 * CampaignReport (wall time, per-worker counts, error histogram,
 * dedup-cache stats).
 *
 * The CLI equivalent:
 *
 *   ./build/nanobench -spec_file specs.txt -jobs 4 -progress -report -
 *
 * Build and run:  ./build/examples/campaign
 */

#include <iostream>

#include "common/logging.hh"
#include "core/campaign.hh"

namespace
{

int
run()
{
    using namespace nb;
    using namespace nb::core;

    // The work list: latency chains for a few instructions, measured
    // twice (duplicates -- the dedup cache will run each once), plus
    // one spec that fails to assemble.
    std::vector<BenchmarkSpec> specs;
    for (int round = 0; round < 2; ++round) {
        for (const char *body :
             {"add RAX, RAX", "imul RAX, RAX", "mov R14, [R14]",
              "popcnt RAX, RAX", "xor RAX, RAX; bsf RAX, RBX"}) {
            BenchmarkSpec spec;
            spec.asmCode = body;
            spec.asmInit = "mov [R14], R14";
            specs.push_back(spec);
        }
    }
    specs[7].asmCode = "this assembles on no known CPU";

    Engine engine;
    CampaignOptions options;
    options.jobs = 4;               // worker threads (0 = all cores)
    options.session.uarch = "Skylake";
    options.session.config = CounterConfig::forMicroArch("Skylake");
    options.progress = [](const CampaignProgress &event) {
        // Called under the campaign's own mutex: no locking needed
        // here even though workers run concurrently. Start events
        // carry the spec in flight; settle events bump the count.
        if (event.starting) {
            std::cerr << "\rrunning " << event.specLabel << " ...";
            return;
        }
        std::cerr << "\rmeasured " << event.done << "/" << event.total
                  << (event.done == event.total ? " specs\n"
                                                : " specs    ");
    };

    CampaignResult campaign = engine.runCampaign(specs, options);

    // One outcome per input spec, in input order, no matter which
    // worker executed it (duplicates share their first occurrence).
    for (std::size_t i = 0; i < campaign.outcomes.size(); ++i) {
        const RunOutcome &outcome = campaign.outcomes[i];
        std::cout << "spec " << i << ": ";
        if (outcome.ok()) {
            std::cout << *outcome.result().find("Core cycles")
                      << " cycles/iteration  ("
                      << outcome.result().specEcho << ")\n";
        } else {
            std::cout << "error ("
                      << runErrorCodeName(outcome.error().code)
                      << "): " << outcome.error().message << "\n";
        }
    }

    const CampaignReport &report = campaign.report;
    std::cout << "\n" << report.totalSpecs << " specs, "
              << report.uniqueSpecs << " unique, " << report.cacheHits
              << " served from the dedup cache, " << report.okCount
              << " ok, " << report.errorCount() << " failed, in "
              << report.wallSeconds << " s on " << report.jobs
              << " workers\n";
    for (unsigned w = 0; w < report.perWorkerSpecs.size(); ++w)
        std::cout << "  worker " << w << " ran "
                  << report.perWorkerSpecs[w] << " specs\n";

    // The report serializes like results do (also: toCsv()).
    std::cout << "\nAs JSON:\n" << report.toJson();
    return 0;
}

} // namespace

int
main()
{
    // A FatalError (a bad argument, or a machine the example cannot
    // analyze) already printed its "fatal: ..." line: exit 1 like the
    // CLI does.
    try {
        return run();
    } catch (const nb::FatalError &) {
        return 1;
    }
}
