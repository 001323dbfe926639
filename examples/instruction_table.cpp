/**
 * @file
 * Instruction characterization (paper §V / uops.info): measure latency,
 * throughput, µop count, and port usage -- including privileged
 * instructions, which is only possible in kernel mode, the headline
 * capability of nanoBench.
 *
 * With no instructions given, the FULL variant catalog is
 * characterized through the parallel campaign executor
 * (buildInstructionTable): the planner emits plain BenchmarkSpecs,
 * Engine::runCampaign() fans them across workers, and the decoded rows
 * come back as an InstructionTable that can be serialized and diffed.
 *
 * Usage: ./build/examples/instruction_table [uarch] [asm...]
 *   e.g. ./build/examples/instruction_table Haswell
 *        ./build/examples/instruction_table Haswell "imul RAX, RBX"
 */

#include <iomanip>
#include <iostream>

#include "common/logging.hh"
#include "uops/table.hh"
#include "x86/assembler.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace nb;
    nb::setQuiet(true);

    std::string uarch = argc > 1 ? argv[1] : "Skylake";
    std::vector<std::string> requests;
    for (int i = 2; i < argc; ++i)
        requests.push_back(argv[i]);

    Engine engine;
    SessionOptions opt;
    opt.uarch = uarch;
    opt.mode = core::Mode::Kernel;

    if (requests.empty()) {
        // Full catalog, campaign-backed.
        uops::TableBuildOptions table_opt;
        table_opt.session = opt;
        table_opt.jobs = 2;
        auto build = uops::buildInstructionTable(engine, table_opt);

        std::cout << build.table.format();
        std::cout << "\ncampaign: " << build.report.uniqueSpecs
                  << " unique specs over " << build.report.jobs
                  << " workers, " << build.report.cacheHits
                  << " dedup hits, "
                  << std::fixed << std::setprecision(2)
                  << build.report.wallSeconds << " s wall\n";
        if (build.table.errorCount() != 0) {
            std::cout << build.table.errorCount()
                      << " variant(s) errored\n";
            return 1;
        }
        // Round-trip demo: the table survives JSON serialization.
        auto parsed =
            uops::InstructionTable::fromJson(build.table.toJson());
        std::cout << "JSON round-trip: " << parsed.rows.size()
                  << " rows, diff "
                  << (uops::diffTables(build.table, parsed).empty()
                          ? "clean"
                          : "DIRTY")
                  << "\n";
        return 0;
    }

    // Chosen instructions only: the classic per-variant tool.
    Session session = engine.session(opt);
    uops::Characterizer tool(session);
    std::cout << "Instruction characterization on " << uarch << " ("
              << session.machine().uarch().cpu << "), kernel mode\n\n";
    std::cout << uops::Characterizer::tableHeader() << "\n";
    std::cout << std::string(70, '-') << "\n";
    for (const auto &text : requests) {
        auto insn = x86::assemble(text);
        if (insn.size() != 1) {
            std::cout << text << ": expected exactly one instruction\n";
            continue;
        }
        std::cout << tool.characterize(insn[0]).tableRow() << "\n";
    }
    return 0;
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
