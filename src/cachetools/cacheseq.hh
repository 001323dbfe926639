/**
 * @file
 * cacheSeq (paper §VI-C): run an access sequence in a chosen cache set
 * and measure how many hits/misses it generates.
 *
 * The tool assigns each abstract block of the sequence a (physical)
 * address that maps to the chosen set (and, for the L3, to the chosen
 * C-Box/slice); it generates a microbenchmark from the sequence and
 * evaluates it with the kernel-space version of nanoBench in noMem mode
 * (§III-I). Per-element measurement selection uses the pause/resume
 * magic markers. Between two accesses to the same set of a lower-level
 * cache, the tool automatically inserts enough accesses to addresses
 * that map to the same L1/L2 sets but different L3 sets, so that the
 * next access actually reaches the cache under test; these eviction
 * accesses are excluded from the measurements. The physically-contiguous
 * R14 area of the kernel runner provides the address space (§IV-D).
 */

#ifndef NB_CACHETOOLS_CACHESEQ_HH
#define NB_CACHETOOLS_CACHESEQ_HH

#include <map>
#include <string>
#include <vector>

#include "cachetools/policy_sim.hh"
#include "core/runner.hh"

namespace nb
{
class Session;
}

namespace nb::cachetools
{

/** Which cache the sequence targets. */
enum class CacheLevel : std::uint8_t
{
    L1,
    L2,
    L3,
};

/** cacheSeq options (§VI-C). */
struct CacheSeqOptions
{
    CacheLevel level = CacheLevel::L3;
    /** Target set index (within a slice for the L3). */
    unsigned set = 0;
    /** Target C-Box/slice for L3 experiments. */
    unsigned cbox = 0;
    /** Runs to aggregate over (mean); more for noisy/probabilistic
     *  policies. */
    unsigned repetitions = 1;
    /** Disable the hardware prefetchers first (§IV-A2). */
    bool disablePrefetchers = true;
};

/** Measured hits and misses of one sequence. */
struct HitMiss
{
    double hits = 0.0;
    double misses = 0.0;
};

/** The cacheSeq tool bound to one kernel-mode runner. */
class CacheSeq
{
  public:
    /** @throws nb::FatalError if the runner is not in kernel mode or
     *  prefetchers cannot be disabled (§VI-D: AMD CPUs). */
    CacheSeq(core::Runner &runner, const CacheSeqOptions &options);

    /** Same, bound to the runner of an Engine session. The session's
     *  machine must outlive this tool. */
    CacheSeq(Session &session, const CacheSeqOptions &options);

    /** Mean measured hits over the repetitions. */
    double run(const std::vector<SeqAccess> &seq);
    double run(const std::string &seq_text);

    /** Mean measured hits and misses. */
    HitMiss runHitMiss(const std::vector<SeqAccess> &seq);

    /**
     * Plan the benchmark runHitMiss() would execute, without running
     * it: the returned spec carries the generated body (eviction runs,
     * pause/resume markers, hit/miss events of the targeted level) and
     * can go through Session::runBatch() or Engine::runCampaign().
     * Block addresses are assigned against this tool's current target,
     * so the spec is only valid on a machine with the same memory
     * layout (same uarch/seed, R14 area reserved at the same base --
     * see CampaignOptions::machineSetup).
     */
    core::BenchmarkSpec planSeq(const std::vector<SeqAccess> &seq);

    /**
     * Same, with @p prelude instructions executed (unmeasured, behind
     * a PFC_PAUSE marker) before the sequence body. The profile's
     * set-dueling probes use this to carry their PSEL training inside
     * the spec, making it self-contained.
     */
    core::BenchmarkSpec planSeqWithPrelude(
        const std::vector<x86::Instruction> &prelude,
        const std::vector<SeqAccess> &seq);

    /** Fold a planned spec's result back into hits/misses. */
    static HitMiss decodeHitMiss(CacheLevel level,
                                 const core::BenchmarkResult &result);

    /** Hit/miss event names of a cache level (the events planSeq()
     *  selects). */
    static const char *hitEventName(CacheLevel level);
    static const char *missEventName(CacheLevel level);

    /** Virtual address assigned to a block id. */
    Addr blockVaddr(int block);

    /**
     * Point the tool at a different set/slice without re-reserving the
     * memory area (used by the set-dueling scanner, §VI-C3). Clears the
     * block-address assignment.
     * @throws nb::FatalError if the set or C-Box is out of range.
     */
    void setTarget(unsigned set, unsigned cbox);

    const CacheSeqOptions &options() const { return opt_; }
    core::Runner &runner() { return runner_; }

    /** Associativity of the targeted cache level. */
    unsigned levelAssoc() const;

  private:
    /** Sets per cache (per slice for the L3) of the targeted level. */
    unsigned targetSets() const;
    /** @throws nb::FatalError if @p set / @p cbox is out of range. */
    void checkTarget(unsigned set, unsigned cbox) const;
    void setupAddressSpace();
    void computeTargetLayout();
    Addr nextCandidate();
    /** Eviction-run addresses: same L1/L2 set, different target set. */
    std::vector<Addr> evictionRun();
    std::vector<x86::Instruction>
    buildBody(const std::vector<SeqAccess> &seq);

    core::Runner &runner_;
    CacheSeqOptions opt_;
    Addr areaVirt_ = 0;
    Addr areaPhys_ = 0;
    Addr areaSize_ = 0;
    /** Stride between consecutive same-set candidates. */
    Addr candidateStride_ = 0;
    Addr nextCandidateOffset_ = 0;
    std::map<int, Addr> blockAddrs_;
    std::vector<Addr> evictPool_;
    std::size_t evictPos_ = 0;
    unsigned evictRunLength_ = 0;
};

} // namespace nb::cachetools

#endif // NB_CACHETOOLS_CACHESEQ_HH
