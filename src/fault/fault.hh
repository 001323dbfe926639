/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * nanoBench's value proposition is that arbitrary user code runs
 * safely under the harness; the campaign layer correspondingly claims
 * degradation paths (per-spec error outcomes, bounded retries,
 * checkpointed partial reports) that are hard to exercise on demand
 * because the simulator itself is deterministic and rarely fails. A
 * FaultPlan makes every such path reproducible: it injects failures at
 * named sites in the execution pipeline, armed via the NB_FAULT
 * environment variable or the -fault CLI option.
 *
 * Grammar (comma-separated entries):
 *
 *     site[@CYCLE][~PROB][:transient|:permanent][:xCOUNT]
 *     seed:VALUE
 *
 *  - site: one of assemble, decode, execute, worker-pickup,
 *    report-write.
 *  - @CYCLE (execute only): trip once the run has consumed at least
 *    CYCLE simulated cycles (checked at the dispatcher's amortized
 *    budget checkpoints).
 *  - ~PROB: inject with probability PROB in [0,1] per arrival at the
 *    site, drawn from a plan-owned xorshift RNG seeded by seed:VALUE
 *    (default 1) -- deterministic for a fixed plan string and arrival
 *    order. Without ~PROB every arrival injects.
 *  - :transient / :permanent: taxonomy carried into the resulting
 *    RunError (default permanent). Transient faults are retried by
 *    the campaign worker loop; permanent ones fail fast.
 *  - :xCOUNT: disarm the entry after COUNT injections (default:
 *    unlimited). "worker-pickup:transient:x2" fails the first two
 *    pickups, then behaves normally -- the retry-succeeds test shape.
 *
 * Sites check the active plan through one relaxed atomic pointer
 * load, so the disabled path costs nothing measurable.
 */

#ifndef NB_FAULT_FAULT_HH
#define NB_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace nb::fault
{

/** xorshift64 step of a plan's ~PROB stream: deterministic, seedable,
 *  no <random> weight. @p state must not be 0. */
inline std::uint64_t
xorshift64(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/** Named injection sites along the spec execution pipeline. */
enum class Site : std::uint8_t
{
    /** Spec assembly (Engine::runSpecOnRunner, before the memo). */
    Assemble,
    /** Measurement-program construction/decode (Runner). */
    Decode,
    /** The threaded dispatch loop, optionally at a cycle offset. */
    Execute,
    /** A campaign worker picking up a unique spec. */
    WorkerPickup,
    /** Writing a campaign report or checkpoint journal. */
    ReportWrite,
};

inline constexpr unsigned kNumSites = 5;

/** Canonical (grammar) name of a site. */
const char *siteName(Site site);

/** Thrown by an armed injection site. Derives from FatalError so
 *  fault-unaware catch sites degrade to a generic execution error;
 *  fault-aware ones preserve the site and taxonomy. */
class InjectedFault : public FatalError
{
  public:
    InjectedFault(Site site, bool transient)
        : FatalError(std::string("injected fault at site '") +
                     siteName(site) + "' (" +
                     (transient ? "transient" : "permanent") + ")"),
          site_(site), transient_(transient)
    {
    }

    Site site() const { return site_; }
    bool transient() const { return transient_; }

  private:
    Site site_;
    bool transient_;
};

/** One parsed plan entry (see the file comment for the grammar). */
struct FaultSpec
{
    Site site = Site::Assemble;
    /** Execute site only: trip at >= this many consumed cycles. */
    std::uint64_t atCycle = 0;
    /** Probability numerator out of 2^32; 2^32 == always. */
    std::uint64_t probability = std::uint64_t(1) << 32;
    bool transient = false;
    /** Injections before the entry disarms; UINT64_MAX == unlimited. */
    std::uint64_t count = ~std::uint64_t(0);
};

/**
 * A parsed, armed fault plan. Injection state (per-entry remaining
 * counts, the RNG, per-site hit statistics) sits behind one mutex so
 * campaign workers can hit sites concurrently; given a fixed plan
 * string and per-site arrival order, injection decisions are
 * deterministic. Arrivals only reach the mutex when a plan is
 * installed, so measurement runs never pay for it.
 */
class FaultPlan
{
  public:
    /** Parse a plan from the NB_FAULT / -fault grammar.
     *  @throws nb::FatalError on a malformed plan string. */
    static FaultPlan parse(const std::string &text);

    /** The plan string this plan was parsed from. */
    const std::string &text() const { return text_; }

    /** Arrive at a site; throws InjectedFault if an armed entry
     *  matches. @p cycles is the execute-site cycle offset. */
    void arrive(Site site, std::uint64_t cycles = 0);

    /** Injections delivered at @p site so far. */
    std::uint64_t injected(Site site) const;

    /** True if any entry targets @p site (armed or exhausted). */
    bool targets(Site site) const;

  private:
    struct State
    {
        std::mutex mutex;
        /** Parallel to entries_: remaining injection counts. */
        std::vector<std::uint64_t> remaining;
        std::array<std::uint64_t, kNumSites> injected{};
        std::uint64_t rng = 1;
    };

    std::string text_;
    std::vector<FaultSpec> entries_;
    std::unique_ptr<State> state_;

    FaultPlan() : state_(std::make_unique<State>()) {}
};

/** The process-global active plan, or nullptr (one relaxed load). */
FaultPlan *activePlan();

/** Install @p plan as the process-global active plan (not owned; pass
 *  nullptr to disarm). Returns the previous plan. Install before
 *  starting concurrent work; installation itself is atomic but not
 *  synchronized against in-flight arrivals. */
FaultPlan *setActivePlan(FaultPlan *plan);

/** RAII: install a plan for a scope (tests), restoring the previous
 *  active plan on destruction. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const std::string &text)
        : plan_(FaultPlan::parse(text)), prev_(setActivePlan(&plan_))
    {
    }

    ~ScopedFaultPlan() { setActivePlan(prev_); }

    ScopedFaultPlan(const ScopedFaultPlan &) = delete;
    ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;

    FaultPlan &plan() { return plan_; }

  private:
    FaultPlan plan_;
    FaultPlan *prev_;
};

/** Arrive at @p site on the active plan, if any. The disabled path is
 *  one relaxed atomic pointer load. */
inline void
maybeInject(Site site, std::uint64_t cycles = 0)
{
    if (FaultPlan *plan = activePlan())
        plan->arrive(site, cycles);
}

/** True iff a plan is installed and targets @p site. Lets hot loops
 *  hoist the site check out of per-iteration work. */
inline bool
armedFor(Site site)
{
    FaultPlan *plan = activePlan();
    return plan != nullptr && plan->targets(site);
}

} // namespace nb::fault

#endif // NB_FAULT_FAULT_HH
