/**
 * @file
 * E6 -- case study I (§V): latency, throughput, and port usage of every
 * instruction variant of the modelled ISA, in the style of uops.info.
 * The paper's tool covers >12,000 variants on real silicon; this
 * regenerates the table for the full modelled instruction set on four
 * representative microarchitectures, including privileged instructions
 * (which only nanoBench's kernel-space version can benchmark).
 */

#include <iostream>

#include "core/engine.hh"
#include "uops/characterize.hh"

int
main(int argc, char **argv)
{
    using namespace nb;
    nb::setQuiet(true);

    std::vector<std::string> uarchs = {"Skylake"};
    if (argc > 1 && std::string(argv[1]) == "--all")
        uarchs = {"Nehalem", "IvyBridge", "Haswell", "Skylake", "Zen"};

    Engine engine;
    for (const auto &name : uarchs) {
        SessionOptions opt;
        opt.uarch = name;
        opt.mode = core::Mode::Kernel;
        Session session = engine.session(opt);
        uops::Characterizer tool(session);

        std::cout << "# E6 (paper SV): instruction characterization on "
                  << name << " (" << session.machine().uarch().cpu
                  << ")\n";
        std::cout << uops::Characterizer::tableHeader() << "\n";
        std::cout << std::string(70, '-') << "\n";
        uops::CharacterizationPlan plan = tool.plan();
        std::vector<RunOutcome> outcomes =
            session.runBatch(uops::Characterizer::planSpecs(plan));
        for (const auto &result : uops::Characterizer::decode(plan, outcomes))
            std::cout << result.tableRow() << "\n";
        std::cout << "\n";
    }
    std::cout << "# Reference points (Skylake): ADD r,r lat 1 tput "
                 "0.25; IMUL r,r lat 3 tput 1 (p1);\n"
              << "# load lat 4 tput 0.5 (p2+p3); store tput 1 (p4); "
                 "64-bit DIV lat ~36, blocking.\n";
    return 0;
}
