/**
 * @file
 * The def/use walk both static analyzers read (private to src/analysis).
 *
 * entryEdges() gives one decoded entry's inputs -- readiness slots,
 * each with the delay the scheduler (sim/dispatch.cc) guarantees or
 * kDataOnly -- and the slots it writes. The bound analyzer walks the
 * timed inputs: sources at the core-µop latency when the entry has core
 * µops, and address registers at the L1 hit latency on top when it has
 * a load µop (the executor reads LEA and store addresses without
 * stalling; an entry with neither µop completes at issue). Lint walks
 * every input: also sources without core µops, the address of another
 * load or of LEA, one-operand IMUL's implicit RAX and, on request, a
 * zero idiom's register operands. A load µop implies a load, so every
 * timed edge is a data edge: a cycle maxCycleMean() finds in a Timed
 * walk it finds in the Data walk too.
 */

#ifndef NB_ANALYSIS_DEFUSE_HH
#define NB_ANALYSIS_DEFUSE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/program.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"

namespace nb::analysis::defuse
{

constexpr std::size_t kNumRegs =
    static_cast<std::size_t>(x86::Reg::NumRegs);
static_assert(kNumRegs <= 64, "register sets are a uint64_t bitmask");

/** The delay of an input that carries data but no guaranteed timing. */
constexpr std::int64_t kDataOnly = -1;

/** No dependence (far below any sum of real delays). */
constexpr std::int64_t kNoPath =
    std::numeric_limits<std::int64_t>::min() / 4;

struct Input
{
    std::uint8_t slot;
    std::int64_t delay; ///< guaranteed cycles, or kDataOnly
};

/** The def/use edges of one entry. A zero idiom has no sources, so
 *  `in` holds its register operands too. */
struct Edges
{
    std::array<Input, sim::kPlanSrcSlots + sim::kPlanAddrSlots +
                          sim::kPlanOperands>
        in;
    std::size_t inCount = 0;
    /** The entry's dst slots (flags included). */
    std::span<const std::uint8_t> out;
    /** The entry's index in its program. */
    std::int32_t entry = -1;

    std::span<const Input> inputs() const { return {in.data(), inCount}; }
};

/** The edges of entry @p e of @p prog (see the file comment). */
Edges entryEdges(const uarch::MicroArch &ua, const sim::Program &prog,
                 std::size_t e, bool idiom_reads = false);

enum class View : std::uint8_t
{
    Timed, ///< timed inputs, each weighing its delay
    Data,  ///< every input, each weighing one step
};

using DistRow = std::array<std::int64_t, kNumRegs>;
using DistMatrix = std::array<DistRow, kNumRegs>;

/** Register dependence along a walk: dist[r][e] is the longest path
 *  from the walk-entry value of e to the current value of r, kNoPath
 *  when r does not depend on it; prov[r][e] indexes its last link in
 *  steps (-1: none). */
struct Walk
{
    /** One link of a longest path: the entry that extends it, by how
     *  much, and the link before (-1: the path starts here). */
    struct Step
    {
        std::int32_t entry;
        std::int64_t weight;
        std::int32_t prev;
    };

    DistMatrix dist;
    std::array<std::array<std::int32_t, kNumRegs>, kNumRegs> prov;
    std::vector<Step> steps;
    /** The slots written so far, one bit each. */
    std::uint64_t written = 0;

    Walk();

    /** Each slot the entry writes now derives from its inputs. */
    void advance(const Edges &edges, View view);
};

/** A walk over every entry of @p prog. */
inline Walk
walk(const uarch::MicroArch &ua, const sim::Program &prog, View view,
     bool idiom_reads = false)
{
    Walk w;
    for (std::size_t i = 0; i < prog.entryCount(); ++i)
        w.advance(entryEdges(ua, prog, i, idiom_reads), view);
    return w;
}

/** The critical cycle of a walk's loop-carried register graph. */
struct LatencyCycle
{
    /** Register sequence c[0] -> c[1] -> ... -> c[len-1] -> c[0]. */
    std::vector<std::size_t> regs;
    std::int64_t weight = 0; ///< Σ edge weights around the cycle
};

/**
 * Maximum cycle mean of the loop-carried graph W[e][r] = dist[r][e]
 * of @p walk over the body (one edge per body copy) via Karp's theorem,
 * plus an exact critical cycle from the tight-edge subgraph after
 * reweighting by the rational mean. Returns an empty cycle when no
 * positive-mean cycle exists: for a Data walk, when no chain threads
 * the body back to itself.
 */
LatencyCycle maxCycleMean(const Walk &walk);

/** A spec segment's instructions: @p code, else @p text assembled
 *  (@throws nb::FatalError on a syntax error). */
inline std::vector<x86::Instruction>
segmentCode(const std::vector<x86::Instruction> &code,
            const std::string &text)
{
    return code.empty() && !text.empty() ? x86::assemble(text) : code;
}

/** @p code decoded as one block of max(1, @p repeat) copies. */
inline sim::Program
decodeSegment(const uarch::MicroArch &ua,
              std::vector<x86::Instruction> code, std::uint64_t repeat)
{
    std::vector<sim::Program::Segment> segs(1);
    segs[0].code = std::move(code);
    segs[0].repeat = std::max<std::uint64_t>(1, repeat);
    return sim::Program::decode(ua, std::move(segs));
}

} // namespace nb::analysis::defuse

#endif // NB_ANALYSIS_DEFUSE_HH
