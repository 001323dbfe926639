/**
 * @file
 * Cache-analysis walkthrough (paper §VI): for a chosen CPU, measure the
 * associativity of each cache level, then identify the replacement
 * policy with the two inference tools -- the permutation-policy tool of
 * [15] where it applies, and the random-sequence tool otherwise. For
 * non-deterministic policies, print a small age graph (§VI-C2).
 *
 * Usage:  ./build/examples/cache_analysis [uarch]   (default IvyBridge)
 */

#include <iostream>

#include "cachetools/cacheseq.hh"
#include "cachetools/infer.hh"
#include "common/logging.hh"
#include "core/engine.hh"

namespace
{

using namespace nb;
using namespace nb::cachetools;

void
analyzeLevel(Session &session, CacheLevel level, const char *name,
             unsigned set, unsigned cbox)
{
    CacheSeqOptions co;
    co.level = level;
    co.set = set;
    co.cbox = cbox;
    CacheSeq cs(session, co);

    // Step 1: measure the associativity (no prior knowledge needed).
    // Every step plans its sequences, runs them on this session, and
    // decodes the outcomes.
    auto assoc_plan = planAssociativity(cs);
    unsigned assoc =
        decodeAssociativity(assoc_plan, session.runBatch(assoc_plan.specs))
            .assoc;
    std::cout << name << ": associativity " << assoc;

    // Step 2: try the permutation-policy tool ([15], §VI-C1).
    if ((assoc & (assoc - 1)) == 0) {
        auto plan = planPermutation(cs, assoc);
        if (auto id =
                decodePermutation(plan, session.runBatch(plan.specs))) {
            std::cout << ", policy " << *id
                      << "  (permutation tool)\n";
            return;
        }
    }

    // Step 3: the random-sequence tool against all candidates.
    Rng rng(2);
    auto id_plan = planPolicyId(cs, assoc, rng, 80);
    auto id = decodePolicyId(id_plan, session.runBatch(id_plan.specs));
    if (id.deterministic && id.matches.size() >= 1) {
        std::cout << ", policy " << id.matches.front();
        if (id.matches.size() > 1) {
            std::cout << " (plus " << id.matches.size() - 1
                      << " observationally equivalent variants)";
        }
        std::cout << "  (random-sequence tool)\n";
        return;
    }

    // Step 4: non-deterministic -> age graph (§VI-C2).
    std::cout << ", policy is non-deterministic; age graph:\n";
    CacheSeqOptions rep_opt = co;
    rep_opt.repetitions = 12;
    CacheSeq rep_cs(session, rep_opt);
    auto graph_plan = planAgeGraph(rep_cs, assoc, 4 * assoc, assoc);
    auto graph =
        decodeAgeGraph(graph_plan, session.runBatch(graph_plan.specs));
    std::cout << graph.toCsv();
}

} // namespace

namespace
{

int
run(int argc, char **argv)
{
    nb::setQuiet(true);
    std::string uarch = argc > 1 ? argv[1] : "IvyBridge";

    Engine engine;
    SessionOptions opt;
    opt.uarch = uarch;
    opt.mode = core::Mode::Kernel; // WBINVD & friends need kernel space
    Session session = engine.session(opt);

    std::cout << "Analyzing the caches of " << uarch << " ("
              << session.machine().uarch().cpu << ")\n\n";
    analyzeLevel(session, CacheLevel::L1, "L1D", 5, 0);
    analyzeLevel(session, CacheLevel::L2, "L2 ", 37, 0);
    analyzeLevel(session, CacheLevel::L3, "L3 ", 520, 0);
    const auto &cfg = session.machine().uarch().cacheConfig;
    if (!cfg.l3Dueling.empty()) {
        std::cout << "\n(adaptive L3: probing the second leader group, "
                     "sets 768-831)\n";
        analyzeLevel(session, CacheLevel::L3, "L3*", 800, 0);
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
