/**
 * @file
 * Per-microarchitecture instruction timing: latency, µop decomposition,
 * and port assignment. This is the "ground truth" that case study I
 * (§V, uops.info-style characterization) recovers through measurements.
 */

#ifndef NB_UARCH_TIMING_HH
#define NB_UARCH_TIMING_HH

#include <array>
#include <cstdint>
#include <initializer_list>

#include "x86/instruction.hh"

namespace nb::uarch
{

/** A mask of execution ports a µop may dispatch to (bit i = port i). */
using PortMask = std::uint16_t;

/** Most core µops of any instruction form (CPUID's fixed backbone). */
inline constexpr unsigned kMaxCoreUops = 4;

/** Core (non-memory) timing of one instruction form. */
struct CoreTiming
{
    CoreTiming() = default;
    /** Panics if @p ports holds more than kMaxCoreUops masks. */
    CoreTiming(unsigned lat, std::initializer_list<PortMask> ports,
               unsigned block);

    /** Register-to-register latency in cycles (0 for pure stores). */
    unsigned latency = 1;
    /** Port masks, one per executed µop: the first numUops entries
     *  (none for e.g. NOP). */
    std::array<PortMask, kMaxCoreUops> uopPorts{};
    unsigned numUops = 0;
    /**
     * Extra cycles the chosen execution unit stays blocked after
     * dispatch (non-pipelined units such as dividers).
     */
    unsigned blockCycles = 0;
};

/** Execution-port family; determines the port layout and base timings. */
enum class PortFamily : std::uint8_t
{
    Nehalem,     ///< Nehalem/Westmere: 6 ports, one load port
    SandyBridge, ///< Sandy Bridge/Ivy Bridge: 6 ports, two load ports
    Haswell,     ///< Haswell/Broadwell: 8 ports
    Skylake,     ///< Skylake through Cannon Lake: 8 ports
    Zen,         ///< AMD Zen: modelled with 10 issue ports
};

/** Port-layout constants of a family. */
struct PortLayout
{
    unsigned numPorts = 8;
    PortMask loadPorts = 0;
    PortMask storeAddrPorts = 0;
    PortMask storeDataPorts = 0;
    PortMask branchPorts = 0;
};

/** The port layout of a family. */
PortLayout portLayout(PortFamily family);

/**
 * Core timing for an instruction form on a family. Handles
 * form-dependent cases (3-component LEA, width-dependent division,
 * immediate vs CL shifts, ...). Memory µops are NOT included here; the
 * machine's decoder appends load/store µops based on the operands.
 */
CoreTiming coreTiming(PortFamily family, const x86::Instruction &insn);

/** Whether the family supports an opcode (e.g. no AVX before SNB). */
bool supportsOpcode(PortFamily family, x86::Opcode op);

} // namespace nb::uarch

#endif // NB_UARCH_TIMING_HH
