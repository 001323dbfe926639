/**
 * @file
 * E7 -- reproduces the set-dueling findings of §VI-C3/§VI-D:
 *  - Ivy Bridge: dedicated sets 512-575 and 768-831 in ALL slices;
 *  - Haswell: the same sets, but only in slice 0;
 *  - Broadwell: the two leader groups swapped between slices 0 and 1
 *    (the configuration Briongos et al. mis-attributed, §VI-D).
 *
 * The scan runs the way the profile builder runs it: plan on a fresh
 * planning machine -> Engine::runCampaign (a reset to the set-up
 * machine per probe) -> decode. --quick probes every 32nd set instead
 * of every 16th. The run checks the three findings and exits 1 if one
 * is missing.
 */

#include <iostream>
#include <map>
#include <optional>
#include <utility>

#include "cachetools/dueling_scan.hh"
#include "core/campaign.hh"
#include "profile/build.hh"
#include "uarch/uarch.hh"

namespace
{

using namespace nb;
using namespace nb::cachetools;

/** Leader roles the paper reports for one slice: (sets 512-575, sets
 *  768-831). Slices missing from the map have no leaders. */
using Finding = std::map<unsigned, std::pair<SetRole, SetRole>>;

/** Check @p result against the paper's finding; print what differs. */
bool
matchesPaper(const DuelingScanResult &result, const Finding &expected)
{
    bool ok = true;
    std::map<unsigned, std::pair<bool, bool>> found;
    for (const auto &range : result.dedicatedRanges) {
        std::optional<bool> low_band;
        if (range.setLo >= 512 && range.setHi <= 575)
            low_band = true;
        else if (range.setLo >= 768 && range.setHi <= 831)
            low_band = false;
        auto it = expected.find(range.slice);
        bool as_expected =
            low_band && it != expected.end() &&
            range.role ==
                (*low_band ? it->second.first : it->second.second);
        if (!as_expected) {
            std::cout << "#   UNEXPECTED: slice " << range.slice
                      << " sets " << range.setLo << "-" << range.setHi
                      << " " << setRoleName(range.role) << "\n";
            ok = false;
            continue;
        }
        (*low_band ? found[range.slice].first
                   : found[range.slice].second) = true;
    }
    for (const auto &[slice, roles] : expected) {
        (void)roles;
        if (!found[slice].first || !found[slice].second) {
            std::cout << "#   MISSING: a leader band in slice " << slice
                      << "\n";
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    nb::setQuiet(true);

    bool quick = argc > 1 && std::string(argv[1]) == "--quick";

    constexpr auto A = SetRole::FixedA;
    constexpr auto B = SetRole::FixedB;
    Finding ivb;
    for (unsigned slice = 0; slice < 4; ++slice)
        ivb[slice] = {A, B};
    const std::pair<const char *, Finding> findings[] = {
        {"IvyBridge", ivb},
        {"Haswell", {{0, {A, B}}}},
        {"Broadwell", {{0, {A, B}}, {1, {B, A}}}},
    };

    Engine engine;
    bool all_ok = true;
    for (const auto &[name, expected] : findings) {
        const uarch::MicroArch &ua = uarch::getMicroArch(name);
        const auto &duel = ua.cacheConfig.l3Dueling;

        // The plan's addresses assume this machine's layout (plan()
        // reserves the R14 area); every campaign worker rebuilds it
        // with the same setup.
        sim::Machine machine(ua, 42);
        core::Runner runner(machine, core::Mode::Kernel);
        profile::ProfilePlan setup;
        setup.disablePrefetchers =
            machine.caches().prefetcherDisableSupported();
        profile::prepareProfileMachine(runner, setup);
        DuelingScanner scanner(runner, duel.policyA, duel.policyB);
        DuelingPlanOptions po;
        po.stride = quick ? 32 : 16;
        DuelingPlan plan = scanner.plan(po);
        setup.r14Size = plan.r14Size;

        CampaignOptions co;
        co.session.uarch = name;
        co.session.mode = core::Mode::Kernel;
        co.machineSetup = [setup](core::Runner &worker) {
            profile::prepareProfileMachine(worker, setup);
        };
        CampaignResult campaign = engine.runCampaign(plan.specs, co);
        DuelingScanResult result =
            DuelingScanner::decode(plan, campaign.outcomes);

        std::cout << "# E7: dedicated (leader) sets on " << name << " ("
                  << ua.cpu << ")\n";
        std::cout << "#   duel: A=" << duel.policyA
                  << "  B=" << duel.policyB << "\n";
        std::cout << result.summary();
        bool ok = matchesPaper(result, expected);
        std::cout << "#   paper finding "
                  << (ok ? "reproduced" : "NOT reproduced") << "\n\n";
        all_ok = all_ok && ok;
    }
    std::cout << "# Paper reference (SVI-D): IVB 512-575/768-831 in all "
                 "slices;\n"
              << "# HSW same sets in slice 0 only; BDW policy groups "
                 "crossed over slices 0/1.\n";
    return all_ok ? 0 : 1;
}
