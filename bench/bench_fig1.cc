/**
 * @file
 * E5 -- regenerates **Figure 1** of the paper: the Ivy Bridge age graph
 * for the access sequence "<WBINVD> B0 ... B11" in the probabilistic
 * dedicated sets (768-831). For each block Bi and each number n of
 * fresh blocks, the curve shows how often Bi still hits in the L3.
 *
 * Expected shape (§VI-D): the curves for Bi and Bi+1 are similar but
 * shifted by about 16; for B0, about 15/16 of the blocks are evicted as
 * soon as the first fresh blocks arrive, while the remaining ~1/16
 * stay in the cache relatively long -- the signature of
 * QLRU_H11_MR161_R1_U2 insertion.
 */

#include <iomanip>
#include <iostream>

#include "cachetools/cacheseq.hh"
#include "cachetools/infer.hh"
#include "core/engine.hh"

int
main(int argc, char **argv)
{
    using namespace nb;
    using namespace nb::cachetools;
    nb::setQuiet(true);

    // Full range 0..200 like the paper; a smaller sweep with --quick.
    bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    unsigned max_fresh = quick ? 96 : 200;
    unsigned step = quick ? 16 : 8;
    unsigned reps = quick ? 8 : 16;

    Engine engine;
    SessionOptions opt;
    opt.uarch = "IvyBridge";
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);

    CacheSeqOptions co;
    co.level = CacheLevel::L3;
    co.set = 800; // probabilistic dedicated sets: 768-831 (§VI-D)
    co.cbox = 0;
    co.repetitions = reps;
    CacheSeq cs(session, co);

    std::cout << "# E5: Figure 1 -- Ivy Bridge age graph, sequence "
                 "<WBINVD> B0...B11,\n"
              << "# set 800 (dedicated, probabilistic), C-Box 0, "
              << reps << " repetitions/point.\n"
              << "# Columns: L3 hit probability of re-accessing Bi "
                 "after n fresh blocks.\n";
    auto plan = planAgeGraph(cs, 12, max_fresh, step);
    auto graph = decodeAgeGraph(plan, session.runBatch(plan.specs));
    std::cout << graph.toCsv();

    // Quantify the two headline shape features.
    double b0_early = graph.hitRate[0][16 / step];
    double b0_late = 0.0;
    unsigned late_points = 0;
    for (std::size_t p = 0; p < graph.freshCounts.size(); ++p) {
        if (graph.freshCounts[p] >= 32 && graph.freshCounts[p] <= 80) {
            b0_late += graph.hitRate[0][p];
            ++late_points;
        }
    }
    b0_late /= late_points ? late_points : 1;
    std::cout << std::fixed << std::setprecision(3);
    std::cout << "\n# B0 survival after 16 fresh blocks: " << b0_early
              << " (paper: ~1/16 = 0.0625 long-lived fraction)\n";
    std::cout << "# B0 mean survival for n in [32, 80]: " << b0_late
              << " (the long tail of the lucky 1/16)\n";
    return 0;
}
