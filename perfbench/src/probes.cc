#include "probes.hh"

#include <chrono>
#include <vector>

#include "common/stats.hh"
#include "core/runner.hh"
#include "profile/build.hh"
#include "sim/machine.hh"
#include "sim/program.hh"
#include "x86/assembler.hh"

namespace perfbench
{

namespace
{

using ProbeClock = std::chrono::steady_clock;

double
secondsSince(ProbeClock::time_point start)
{
    return std::chrono::duration<double>(ProbeClock::now() - start).count();
}

constexpr unsigned kReps = 7;
constexpr nb::Addr kLine = nb::kCacheLineSize;
constexpr nb::Addr kPage = nb::kPageSize;

/** Median ns per access of @p reps passes of @p accesses calls to
 *  @p touch(i), after one untimed warm-up pass. */
template <typename Touch>
double
nsPerAccess(std::size_t accesses, Touch touch)
{
    for (std::size_t i = 0; i < accesses; ++i)
        touch(i);
    std::vector<double> samples;
    for (unsigned r = 0; r < kReps; ++r) {
        auto start = ProbeClock::now();
        for (std::size_t i = 0; i < accesses; ++i)
            touch(i);
        samples.push_back(secondsSince(start) * 1e9 /
                          static_cast<double>(accesses));
    }
    return nb::median(samples);
}

} // namespace

ProbeResult
runProbes(const nb::uarch::MicroArch &ua)
{
    ProbeResult out;

    std::vector<double> samples;
    for (unsigned r = 0; r < 2 * kReps + 1; ++r) {
        auto start = ProbeClock::now();
        nb::sim::Machine machine(ua, 42);
        nb::core::Runner runner(machine, nb::core::Mode::Kernel);
        samples.push_back(secondsSince(start) * 1e3);
    }
    out.constructMs = nb::median(samples);

    nb::sim::Machine machine(ua, 42);
    machine.setPrivilege(nb::sim::Privilege::Kernel);
    machine.setInterruptsEnabled(false);

    // Register-only ALU/LEA/IMUL mix, repeat-encoded: decoded once,
    // 200k dynamic instructions per execute().
    std::vector<nb::sim::Program::Segment> segments(1);
    segments[0].code = nb::x86::assemble(
        "add RAX, RBX; imul RCX, RCX; xor RDX, RSI; lea RDI, [RDI+8]");
    segments[0].repeat = 50'000;
    nb::sim::Program prog = nb::sim::Program::decode(ua, segments);
    samples.clear();
    for (unsigned r = 0; r < kReps + 1; ++r) {
        machine.pmu().beginEpoch();
        auto start = ProbeClock::now();
        auto stats = machine.execute(prog);
        double s = secondsSince(start);
        if (r > 0)
            samples.push_back(static_cast<double>(stats.instructions) / s /
                              1e6);
    }
    out.executeMinsnPerS = nb::median(samples);

    nb::cache::Hierarchy &caches = machine.caches();
    const nb::cache::HierarchyConfig &cfg = caches.config();
    nb::Addr filled = cfg.l1.sizeBytes + cfg.l2.sizeBytes + cfg.l3.sizeBytes;
    samples.clear();
    for (unsigned r = 0; r < kReps; ++r) {
        for (nb::Addr a = 0; a < filled; a += kLine)
            caches.access(a, nb::cache::AccessType::Store);
        auto start = ProbeClock::now();
        caches.wbinvd();
        samples.push_back(secondsSince(start) * 1e6);
    }
    out.wbinvdUs = nb::median(samples);

    if (caches.prefetcherDisableSupported())
        caches.setPrefetcherControl(nb::cache::pf::kDisableAll);
    constexpr std::size_t kHitLines = 16;
    out.accessHitNs = nsPerAccess(200'000, [&](std::size_t i) {
        caches.access((i % kHitLines) * kLine,
                      nb::cache::AccessType::Load);
    });
    std::size_t miss_lines = 2 * cfg.l3.sizeBytes / kLine;
    out.accessMissNs = nsPerAccess(miss_lines, [&](std::size_t i) {
        caches.access(i * kLine, nb::cache::AccessType::Load);
    });

    nb::sim::Tlb &tlb = machine.tlb();
    std::size_t pages = 4 * std::size_t{tlb.config().dtlb.entries};
    out.tlbAccessNs = nsPerAccess(200'000, [&](std::size_t i) {
        tlb.access((i % pages) * kPage);
    });

    nb::profile::ProfileOptions popt;
    popt.session.uarch = ua.name;
    auto start = ProbeClock::now();
    nb::profile::planMachineProfile(popt);
    out.profilePlanS = secondsSince(start);
    return out;
}

} // namespace perfbench
