/**
 * @file
 * E4 -- regenerates **Table I** of the paper: the replacement policies
 * of L1, L2, and L3 for the ten Intel Core generations, recovered with
 * the inference tools of §VI-C running against the simulated machines.
 *
 * L1/L2 policies are found with the permutation-policy tool where it
 * applies (PLRU) and the random-sequence tool otherwise; L3 policies
 * with the random-sequence tool. Adaptive L3s (IvyBridge, Haswell,
 * Broadwell) are probed in their dedicated leader sets (§VI-D): the
 * deterministic group is identified by name; the probabilistic group is
 * reported as non-deterministic (its analysis is Figure 1 / E5).
 */

#include <iomanip>
#include <iostream>

#include "cachetools/cacheseq.hh"
#include "cachetools/infer.hh"
#include "core/engine.hh"

namespace
{

using namespace nb;
using namespace nb::cachetools;

/** Policy of one level via the §VI-C toolchain. */
std::string
inferLevel(Session &session, CacheLevel level, unsigned set,
           unsigned cbox, unsigned assoc)
{
    CacheSeqOptions co;
    co.level = level;
    co.set = set;
    co.cbox = cbox;
    CacheSeq cs(session, co);

    // Tool 1 (permutation policies, [15]); applies to power-of-two
    // associativities.
    if ((assoc & (assoc - 1)) == 0) {
        auto plan = planPermutation(cs, assoc);
        if (auto name =
                decodePermutation(plan, session.runBatch(plan.specs)))
            return *name;
    }
    // Tool 2 (random sequences vs candidate simulations).
    Rng rng(2);
    auto plan = planPolicyId(cs, assoc, rng, 90);
    auto id = decodePolicyId(plan, session.runBatch(plan.specs));
    if (!id.deterministic)
        return "non-deterministic (see E5)";
    if (id.matches.empty())
        return "UNKNOWN";
    // Observationally equivalent variants (e.g. R0/R1 with U0, §VI-B2)
    // may survive together; report the first (paper naming).
    std::string out = id.matches.front();
    if (id.matches.size() > 1)
        out += " (+" + std::to_string(id.matches.size() - 1) + " equiv)";
    return out;
}

} // namespace

int
main()
{
    nb::setQuiet(true);
    std::cout
        << "# E4: Table I -- replacement policies used by recent Intel "
           "CPUs\n"
        << "# (recovered by the inference tools; '(+n equiv)' marks\n"
        << "#  observationally equivalent QLRU variants, SVI-B2)\n\n";
    std::cout << std::left << std::setw(13) << "uarch" << std::setw(18)
              << "CPU" << std::setw(8) << "L1"
              << std::setw(30) << "L2" << "L3\n";
    std::cout << std::string(100, '-') << "\n";

    Engine engine;
    for (const auto &name : nb::uarch::tableOneMicroArchNames()) {
        SessionOptions opt;
        opt.uarch = name;
        opt.mode = core::Mode::Kernel;
        Session session = engine.session(opt);
        const auto &cfg = session.machine().uarch().cacheConfig;

        std::string l1 =
            inferLevel(session, CacheLevel::L1, 7, 0, cfg.l1.assoc);
        std::string l2 =
            inferLevel(session, CacheLevel::L2, 77, 0, cfg.l2.assoc);
        std::string l3;
        if (!cfg.l3Dueling.empty()) {
            // Adaptive: probe one leader set of each group (§VI-D).
            std::string a = inferLevel(session, CacheLevel::L3, 520, 0,
                                       cfg.l3.assoc);
            std::string b = inferLevel(session, CacheLevel::L3, 800, 0,
                                       cfg.l3.assoc);
            l3 = "adaptive: " + a + " / " + b;
        } else {
            l3 = inferLevel(session, CacheLevel::L3, 33, 0, cfg.l3.assoc);
        }
        std::cout << std::left << std::setw(13) << name << std::setw(18)
                  << session.machine().uarch().cpu << std::setw(8) << l1
                  << std::setw(30) << l2 << l3 << "\n";
    }

    std::cout << "\n# Paper reference (Table I):\n"
              << "#   L1: PLRU everywhere; L2: PLRU through Broadwell,\n"
              << "#   QLRU_H00_M1_R2_U1 on SKL/KBL/CFL, "
                 "QLRU_H00_M1_R0_U1 on CNL;\n"
              << "#   L3: MRU (NHM/WSM), MRU* (SNB), adaptive "
                 "(IVB/HSW/BDW),\n"
              << "#   QLRU_H11_M1_R0_U0 (SKL/KBL/CFL/CNL).\n";
    return 0;
}
