/**
 * @file
 * Machine-profile walkthrough (paper §VI): build the full
 * memory-system profile of a CPU -- cache geometry, latencies,
 * replacement policies, TLB capacities/penalties, and set-dueling
 * leader ranges -- through ONE parallel campaign, then demonstrate
 * the persistence and diffing that make profiles usable as golden
 * regression references.
 *
 * Usage:  ./build/examples/machine_profile [uarch] [jobs]
 *         (default Skylake, 2 workers)
 */

#include <iostream>

#include "common/logging.hh"
#include "profile/build.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace nb;

    profile::ProfileOptions options;
    options.session.uarch = argc > 1 ? argv[1] : "Skylake";
    options.jobs = argc > 2
                       ? static_cast<unsigned>(std::atoi(argv[2]))
                       : 2;
    // Trim the experiment sizing a little for a snappy demo; drop
    // these lines for full coverage.
    options.policySequences = 24;
    options.maxAssoc = 20;
    options.tlbMaxPages = 2048;

    // Every experiment -- hundreds of benchmark specs -- goes through
    // one Engine::runCampaign() call. Each worker resets its machine
    // to the set-up state before every unique spec, so the profile is
    // bit-identical for ANY -jobs value.
    Engine engine;
    auto build = profile::buildMachineProfile(engine, options);

    std::cout << build.profile.format() << "\n";
    std::cout << "campaign: " << build.report.totalSpecs << " specs, "
              << build.report.uniqueSpecs << " unique, "
              << build.report.errorCount() << " failed, "
              << build.report.jobs << " workers, "
              << build.report.wallSeconds << " s\n\n";

    // Profiles round-trip exactly through JSON and CSV...
    std::string json = build.profile.toJson();
    auto restored = profile::MachineProfile::fromJson(json);
    std::cout << "JSON round-trip exact: "
              << (restored.toJson() == json ? "yes" : "NO") << "\n";

    // ...and diff cleanly: against themselves (the golden-gate
    // workflow) and across microarchitectures.
    std::cout << "self-diff empty: "
              << (profile::diffProfiles(build.profile, restored).empty()
                      ? "yes"
                      : "NO")
              << "\n";
    if (build.profile.uarch != "Nehalem") {
        profile::ProfileOptions other = options;
        other.session.uarch = "Nehalem";
        auto nehalem = profile::buildMachineProfile(engine, other);
        auto diff =
            profile::diffProfiles(build.profile, nehalem.profile);
        std::cout << "\nvs Nehalem (" << diff.entries.size()
                  << " differences):\n"
                  << diff.format();
    }
    return build.profile.complete() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // A FatalError (a bad argument, or a machine the example cannot
    // analyze) already printed its "fatal: ..." line: exit 1 like the
    // CLI does.
    try {
        return run(argc, argv);
    } catch (const nb::FatalError &) {
        return 1;
    }
}
