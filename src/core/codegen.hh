/**
 * @file
 * Measurement-code generation (paper Algorithm 1, §III-B, §IV-B).
 *
 * For a microbenchmark the generator emits:
 *
 *   codeInit                       (initialization, not measured)
 *   m1 <- readPerfCtrs             (serialized per the chosen mode)
 *   [loop head if loopCount > 0]
 *   code x localUnrollCount        (the benchmark body, unrolled)
 *   [loop tail]
 *   m2 <- readPerfCtrs
 *
 * Register save/restore (lines 2 and 11 of Algorithm 1) is performed by
 * the runner at the architectural-state level, which is behaviourally
 * equivalent to the push/pop sequences the real tool emits.
 *
 * In the default (memory) mode the counter readout stores the raw values
 * to a results buffer via absolute addressing, temporarily spilling
 * RAX/RCX/RDX to a scratch slot and restoring them afterwards, so the
 * microbenchmark's registers survive (§III-B). In noMem mode (§III-I)
 * the readout instead accumulates m2-m1 directly into dedicated
 * accumulator registers (sub on the first read, add on the second) and
 * performs no memory access at all; the microbenchmark must then
 * preserve those registers. PFC_PAUSE/PFC_RESUME magic markers embedded
 * in the body are rewritten (byte-level, like the real tool) into
 * counter pause/resume operations by the encoder/decoder path.
 */

#ifndef NB_CORE_CODEGEN_HH
#define NB_CORE_CODEGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/config.hh"
#include "sim/program.hh"
#include "x86/instruction.hh"

namespace nb::core
{

/** How counter reads are serialized (§IV-A1). */
enum class SerializeMode : std::uint8_t
{
    None,   ///< no fences: reads may be reordered by the OOO engine
    Cpuid,  ///< CPUID fences (variable latency/µops; problematic)
    Lfence, ///< LFENCE fences (the paper's recommendation)
};

SerializeMode parseSerializeMode(const std::string &name);

/** One value to read in a readout block. */
struct ReadoutItem
{
    enum class Kind : std::uint8_t
    {
        FixedPmc, ///< RDPMC with index 0x40000000+i
        ProgPmc,  ///< RDPMC with index i
        Msr,      ///< RDMSR (kernel only): APERF/MPERF/uncore
    };
    Kind kind = Kind::ProgPmc;
    std::uint32_t index = 0; ///< counter index or MSR address
    std::string name;        ///< display name
};

/** Parameters of one generated-code build. */
struct GenParams
{
    std::vector<x86::Instruction> body;
    std::vector<x86::Instruction> init;
    std::uint64_t loopCount = 0;
    std::uint64_t localUnrollCount = 1;
    SerializeMode serialize = SerializeMode::Lfence;
    bool noMem = false;
    std::vector<ReadoutItem> readouts;
    /** Virtual base of the results/scratch area (memory mode). */
    Addr resultBase = 0;
};

/** Memory layout of the results area (memory mode). */
namespace layout
{
/** m1 slots start here (8 bytes per readout item). */
inline constexpr Addr kM1Offset = 0x000;
/** m2 slots start here. */
inline constexpr Addr kM2Offset = 0x100;
/** RAX/RCX/RDX spill slots. */
inline constexpr Addr kSpillOffset = 0x200;
/** Total size of the results area. */
inline constexpr Addr kAreaSize = 0x240;
} // namespace layout

/** Accumulator registers used by the noMem readout (§III-I); the
 *  microbenchmark must not modify them. */
const std::vector<x86::Reg> &noMemAccumulators();

/** Maximum readout items supported in noMem mode. */
unsigned maxNoMemReadouts();

/**
 * Generate the full measurement function per Algorithm 1 as a
 * materialized instruction vector (localUnrollCount copies of the
 * body, branch targets relocated per copy).
 *
 * The loop counter register is R15 (the body must not modify it when
 * loopCount > 0, as documented in §III-B).
 */
std::vector<x86::Instruction> generateMeasurementCode(const GenParams &p);

/**
 * Build the same measurement function as a predecoded, repeat-encoded
 * sim::Program: the body is decoded ONCE and iterated
 * localUnrollCount times instead of being copied, and every static
 * per-instruction fact is resolved up front. Executing the program is
 * bit-identical to executing generateMeasurementCode(p) -- same
 * virtual instruction indices, same counter values -- but building it
 * is O(|body|) instead of O(unroll x |body|), and one build serves
 * all warm-up and measurement runs of a round (Runner::decodes()).
 */
sim::Program buildMeasurementProgram(const GenParams &p,
                                     const uarch::MicroArch &ua);

/**
 * The generation half of buildMeasurementProgram(): emit the repeat-
 * encoded segment list (preamble, body pattern, loop tail, postamble)
 * without decoding it. buildMeasurementProgram(p, ua) ==
 * sim::Program::decode(ua, buildMeasurementSegments(p)); the split
 * lets the Runner attribute codegen and decode time separately
 * (obs::Phase).
 */
std::vector<sim::Program::Segment>
buildMeasurementSegments(const GenParams &p);

} // namespace nb::core

#endif // NB_CORE_CODEGEN_HH
