/**
 * @file
 * Campaign-backed MachineProfile builder.
 *
 * Mirrors the plan/decode pattern of the §V instruction tables
 * (uops/table.hh) for the §VI memory-system case studies:
 *
 *  1. planMachineProfile() lays out EVERY experiment as plain
 *     BenchmarkSpecs against a private planning machine: per cache
 *     level a set-count hypothesis sweep, a line-size stride sweep,
 *     the fill-and-probe associativity ladder, a pointer-chase
 *     latency ring, and the random-sequence policy-inference
 *     benchmarks; the TLB capacity sweep and penalty chases; and, on
 *     CPUs that advertise an adaptive L3, the self-contained
 *     set-dueling probes.
 *
 *  2. The specs run through ONE Engine::runCampaign() call. Because
 *     they address absolute (R14-area) memory and assume a
 *     just-booted machine, the campaign runs with a machineSetup hook
 *     that reproduces the planning machine's reservation and
 *     prefetcher state once on every worker; each worker then resets
 *     to that post-setup state before every spec, so the outcome of
 *     every spec is a pure function of the spec: -jobs N profiles are
 *     bit-identical to -jobs 1.
 *
 *  3. decodeMachineProfile() folds the outcomes back, in plan order.
 *     Per-spec failures degrade to errored sections instead of
 *     aborting the profile.
 */

#ifndef NB_PROFILE_BUILD_HH
#define NB_PROFILE_BUILD_HH

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cachetools/cacheseq.hh"
#include "cachetools/dueling_scan.hh"
#include "cachetools/infer.hh"
#include "cachetools/tlbtool.hh"
#include "core/campaign.hh"
#include "profile/profile.hh"

namespace nb::profile
{

/** Options for planMachineProfile() / buildMachineProfile(). */
struct ProfileOptions
{
    /** Machine selection (uarch, mode, seed). Cache and TLB
     *  experiments need kernel mode; in user mode every section of
     *  the profile reports an error instead of measuring. */
    SessionOptions session;
    /** Campaign worker threads (0 = one per hardware thread). */
    unsigned jobs = 1;
    /** Share outcomes of identical specs. */
    bool dedup = true;
    /**
     * Ignored: every campaign resets its workers to the post-setup
     * state before each spec. Still declared only because the
     * end-to-end benchmark (perfbench/src/main.cc) reads it; the next
     * change to that benchmark deletes it.
     */
    bool freshMachinePerSpec = true;
    /** Campaign progress callback (settled specs / total specs). */
    std::function<void(std::size_t done, std::size_t total)> progress;
    /** Span tracer forwarded to the campaign (not owned; may be
     *  null). See CampaignOptions::trace. */
    obs::Tracer *trace = nullptr;
    /** Attach per-worker execution observers (never perturbs
     *  outcomes). See CampaignOptions::observe. */
    bool observe = false;

    // ---- experiment sizing (defaults balance coverage vs runtime) --
    /** Probe associativities 1..maxAssoc per level. */
    unsigned maxAssoc = 24;
    /** Random sequences per level for policy inference (§VI-C1). */
    unsigned policySequences = 48;
    /** Upper bound of the TLB capacity search, in pages; 0 disables
     *  the TLB section. */
    unsigned tlbMaxPages = 4096;
    /** Scan for set-dueling leader ranges when the uarch advertises
     *  an L3 duel (§VI-C3). */
    bool duelingScan = true;
    /** Planned-scan parameters (band, stride, in-spec training). */
    cachetools::DuelingPlanOptions dueling;
};

/**
 * Everything the campaign needs to rebuild a planning-equivalent
 * machine and fold outcomes back into a profile. The planned specs
 * live once, in the flattened list; the sub-plans keep only their
 * decode metadata.
 */
struct ProfilePlan
{
    /** Experiments of one cache level, as ranges into specs. */
    struct LevelPlan
    {
        cachetools::CacheLevel level = cachetools::CacheLevel::L1;
        std::string name;
        /** Configured slices (1 unless the level is the sliced L3). */
        unsigned slices = 1;

        /** Set-count hypotheses (ring thrashes iff hypothesis >= the
         *  true set count); specs at [setsFirst, +hypotheses). */
        std::vector<unsigned> setsHypotheses;
        std::size_t setsFirst = 0;
        /** Ring length of the hypothesis specs. */
        unsigned setsRingLines = 0;

        /** Line-size strides probed; specs at [lineFirst, +strides). */
        std::vector<unsigned> lineStrides;
        std::size_t lineFirst = 0;
        /** Bytes scanned per line-size spec. */
        unsigned lineFootprint = 0;

        /** Associativity ladder (infer.hh plan). */
        cachetools::AssocPlan assoc;
        std::size_t assocFirst = 0;

        /** Pointer-chase latency ring; one spec. */
        std::size_t latencySpec = 0;
        unsigned latencyRingLines = 0;

        /** Random-sequence policy identification (infer.hh plan). */
        cachetools::PolicyIdPlan policy;
        std::size_t policyFirst = 0;

        /** Set if planning this level failed; no specs then. */
        std::string error;
    };

    std::string uarch;
    core::Mode mode = core::Mode::Kernel;
    std::uint64_t seed = 0;

    /** R14-area size every planned address assumes (machineSetup
     *  reserves exactly this on each worker machine). */
    Addr r14Size = 0;
    /** Whether the planning machine disabled the prefetchers (workers
     *  replay it). */
    bool disablePrefetchers = false;

    std::vector<LevelPlan> levels;

    std::optional<cachetools::TlbPlan> tlb;
    std::size_t tlbFirst = 0;
    std::string tlbError;

    std::optional<cachetools::DuelingPlan> dueling;
    std::size_t duelingFirst = 0;
    std::string duelingError;
    /** Whether the uarch advertises an L3 duel at all. */
    bool duelAdvertised = false;

    /** The flattened benchmark list, in plan order (campaign input). */
    std::vector<core::BenchmarkSpec> specs;
};

/**
 * Plan the full profile. Builds a private, freshly constructed
 * planning machine (never the Engine pool, so the layout is a pure
 * function of uarch/mode/seed), reserves one R14 area sized for all
 * tools, and emits every experiment. Section-level planning failures
 * (unknown events, AMD prefetchers, user mode) are recorded in the
 * plan and become errored profile sections; @throws nb::FatalError
 * only for an unknown uarch.
 */
ProfilePlan planMachineProfile(const ProfileOptions &options);

/**
 * Reproduce the machine state the planned specs assume on @p runner:
 * reserve the plan's R14 area (skipped if a sufficient area exists)
 * and disable the prefetchers if the plan did. This is what
 * buildMachineProfile() passes as CampaignOptions::machineSetup.
 */
void prepareProfileMachine(core::Runner &runner,
                           const ProfilePlan &plan);

/**
 * Fold campaign outcomes (one per plan spec, in plan order) back into
 * a MachineProfile. Failed specs degrade the affected section's
 * fields and set its error instead of throwing.
 */
MachineProfile decodeMachineProfile(const ProfilePlan &plan,
                                    std::span<const RunOutcome> outcomes);

/** Everything buildMachineProfile() produces. */
struct ProfileBuild
{
    MachineProfile profile;
    /** The underlying campaign's execution report. */
    CampaignReport report;
};

/**
 * Plan, run through one Engine::runCampaign() call, and decode.
 * @throws nb::FatalError for an unknown uarch (before any work
 * starts); per-spec failures are folded into the profile instead.
 */
ProfileBuild buildMachineProfile(Engine &engine,
                                 const ProfileOptions &options = {});

} // namespace nb::profile

#endif // NB_PROFILE_BUILD_HH
