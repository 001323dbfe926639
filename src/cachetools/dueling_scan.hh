/**
 * @file
 * Detection of dedicated (leader) sets in caches that use set dueling
 * (paper §VI-C3, following Wong's approach), including caches where the
 * dedicated sets differ between C-Boxes (Haswell/Broadwell, §VI-D).
 *
 * Protocol: a *signature* access sequence is chosen offline (via policy
 * simulations) to maximally distinguish the two candidate policies.
 * Training workloads then drive the PSEL duel towards each policy in
 * turn -- a pattern that misses more under one policy makes the other
 * win -- and every candidate set is probed in both states. Sets whose
 * signature follows the winner are followers; sets with a fixed
 * signature are dedicated to the policy their signature matches.
 *
 * The scan is planned: plan() emits one self-contained spec per
 * (phase, slice, set) that replays the training pattern and then
 * probes the signature, the specs run through Engine::runCampaign()
 * (each on a machine reset to the campaign's post-setup state), and
 * decode() folds the outcomes into leader ranges (profile/build.cc
 * runs exactly this).
 */

#ifndef NB_CACHETOOLS_DUELING_SCAN_HH
#define NB_CACHETOOLS_DUELING_SCAN_HH

#include <span>
#include <string>
#include <vector>

#include "cachetools/cacheseq.hh"
#include "core/engine.hh"

namespace nb::cachetools
{

/** Classification of one cache set. */
enum class SetRole : std::uint8_t
{
    Follower,
    FixedA,
    FixedB,
    Unknown,
};

const char *setRoleName(SetRole role);

/** One detected contiguous range of dedicated sets. */
struct LeaderRangeResult
{
    unsigned slice = 0;
    unsigned setLo = 0;
    unsigned setHi = 0;
    SetRole role = SetRole::Unknown;
};

/** Scan result. */
struct DuelingScanResult
{
    /** roles[slice][k] = (set, role) for every probed set. */
    std::vector<std::vector<std::pair<unsigned, SetRole>>> roles;
    /** Dedicated ranges, grouped from the probes. */
    std::vector<LeaderRangeResult> dedicatedRanges;

    std::string summary() const;
};

/**
 * Options of the planned (campaign-ready) scan. Every probed set is
 * fixed up front, so boundaries are only as sharp as the stride.
 */
struct DuelingPlanOptions
{
    unsigned setLo = 496;  ///< first set of the scanned band
    unsigned setHi = 847;  ///< last set (inclusive)
    unsigned stride = 16;  ///< probe every stride-th set
    unsigned reps = 1;     ///< signature repetitions (measurements)
    /**
     * Training replays carried inside each probe spec (the spec's
     * loop count): each iteration replays the training pattern over
     * the probed set grid (unmeasured, behind a pause marker) and
     * then probes the signature, so the PSEL duel saturates during
     * the warm-up execution and stays saturated while measuring.
     */
    unsigned trainReplays = 32;
};

/** What one planned probe spec measures. */
struct DuelingProbe
{
    unsigned slice = 0;
    unsigned set = 0;
    /** True: the spec trains the duel towards policy A. */
    bool phaseA = true;
};

/**
 * A planned set-dueling scan. Every spec is self-contained (training
 * + probe); it assumes a machine in its just-booted state -- PSEL at
 * the saturating counter's midpoint -- with the R14 area reserved at
 * the same base as the planning runner's, so run it through a
 * campaign whose machineSetup reserves r14Size bytes; the campaign
 * resets to that post-setup state before every spec (the profile
 * builder does exactly that).
 */
struct DuelingPlan
{
    DuelingPlanOptions options;
    std::string policyA;
    std::string policyB;
    /** Expected signature hits under each pure policy (simulated). */
    double expectedA = 0.0;
    double expectedB = 0.0;
    /** probes[i] describes specs[i]. */
    std::vector<DuelingProbe> probes;
    std::vector<core::BenchmarkSpec> specs;
    /** R14-area size the planned addresses assume. */
    Addr r14Size = 0;
};

/** The scanner, bound to one kernel runner. */
class DuelingScanner
{
  public:
    /**
     * @param policy_a,policy_b Candidate policy names whose duel is
     *        being looked for (QLRU names, §VI-D).
     */
    DuelingScanner(core::Runner &runner, std::string policy_a,
                   std::string policy_b);

    /** Same, bound to the runner of an Engine session. The session's
     *  machine must outlive this tool. */
    DuelingScanner(Session &session, std::string policy_a,
                   std::string policy_b);

    /**
     * Plan the scan as campaign-ready specs (see DuelingPlan). The
     * runner needs an R14 area large enough for the training lines;
     * @throws nb::FatalError if it is too small.
     */
    DuelingPlan plan(const DuelingPlanOptions &options);

    /** R14 bytes plan() needs for a band of the given options. */
    Addr planAreaSize(const DuelingPlanOptions &options);

    /** Fold campaign outcomes (one per plan spec, in plan order) back
     *  into a scan result; failed probes classify as Unknown. */
    static DuelingScanResult decode(const DuelingPlan &plan,
                                    std::span<const RunOutcome> outcomes);

    /** The signature sequence chosen by the offline search. */
    const std::vector<SeqAccess> &signatureSeq() const { return sig_; }
    double expectedHitsA() const { return expectedA_; }
    double expectedHitsB() const { return expectedB_; }

  private:
    void chooseSignature();
    void chooseColdTraining();

    core::Runner &runner_;
    std::string policyA_;
    std::string policyB_;
    unsigned assoc_;
    /** Probe signature (maximal expected-hit gap between A and B). */
    std::vector<SeqAccess> sig_;
    double expectedA_ = 0.0;
    double expectedB_ = 0.0;
    /** Training patterns: the A-favoring one misses more under B and
     *  vice versa, driving the PSEL counter in the wanted direction.
     *  Optimized for a single pass from a flushed cache: the probe
     *  specs flush (WBINVD) every loop iteration, so each training
     *  replay runs from cold. */
    std::vector<SeqAccess> trainColdA_;
    std::vector<SeqAccess> trainColdB_;
};

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_DUELING_SCAN_HH
