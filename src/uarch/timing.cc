/**
 * @file
 * Timing tables. Values are modelled on published measurements
 * (uops.info, Agner Fog's tables) but simplified; the reproduction
 * criterion is that the *measurement tool* recovers exactly these values.
 */

#include "timing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nb::uarch
{

using x86::Instruction;
using x86::Opcode;
using x86::OperandKind;

namespace
{

constexpr PortMask
mask(std::initializer_list<unsigned> ports)
{
    PortMask m = 0;
    for (unsigned p : ports)
        m |= static_cast<PortMask>(1u << p);
    return m;
}

/** Family-specific port groups. */
struct PortGroups
{
    PortMask alu;       ///< simple integer ALU
    PortMask shift;     ///< shifts/rotates/flag-heavy ops
    PortMask mul;       ///< integer multiply
    PortMask div;       ///< divider
    PortMask lea;       ///< fast LEA
    PortMask slowLea;   ///< 3-component LEA
    PortMask vecAlu;    ///< vector integer/FP add
    PortMask vecMul;    ///< vector multiply / FMA
    PortMask vecDiv;    ///< vector divide
    PortMask branch;    ///< branch unit(s)
    PortMask bitScan;   ///< POPCNT/LZCNT/BSF...
};

PortGroups
portGroups(PortFamily family)
{
    switch (family) {
      case PortFamily::Nehalem:
      case PortFamily::SandyBridge:
        return {
            .alu = mask({0, 1, 5}),
            .shift = mask({0, 5}),
            .mul = mask({1}),
            .div = mask({0}),
            .lea = mask({1, 5}),
            .slowLea = mask({1}),
            .vecAlu = mask({1, 5}),
            .vecMul = mask({0}),
            .vecDiv = mask({0}),
            .branch = mask({5}),
            .bitScan = mask({1}),
        };
      case PortFamily::Haswell:
        return {
            .alu = mask({0, 1, 5, 6}),
            .shift = mask({0, 6}),
            .mul = mask({1}),
            .div = mask({0}),
            .lea = mask({1, 5}),
            .slowLea = mask({1}),
            .vecAlu = mask({1, 5}),
            .vecMul = mask({0, 1}),
            .vecDiv = mask({0}),
            .branch = mask({0, 6}),
            .bitScan = mask({1}),
        };
      case PortFamily::Skylake:
        return {
            .alu = mask({0, 1, 5, 6}),
            .shift = mask({0, 6}),
            .mul = mask({1}),
            .div = mask({0}),
            .lea = mask({1, 5}),
            .slowLea = mask({1}),
            .vecAlu = mask({0, 1}),
            .vecMul = mask({0, 1}),
            .vecDiv = mask({0}),
            .branch = mask({0, 6}),
            .bitScan = mask({1}),
        };
      case PortFamily::Zen:
        return {
            .alu = mask({0, 1, 2, 3}),
            .shift = mask({1, 2}),
            .mul = mask({1}),
            .div = mask({2}),
            .lea = mask({0, 1, 2, 3}),
            .slowLea = mask({0, 1}),
            .vecAlu = mask({6, 7, 8}),
            .vecMul = mask({6, 7}),
            .vecDiv = mask({9}),
            .branch = mask({0, 3}),
            .bitScan = mask({0, 1, 2, 3}),
        };
    }
    panic("unreachable port family");
}

bool
isSkylakePlus(PortFamily family)
{
    return family == PortFamily::Skylake;
}

bool
hasAvx(PortFamily family)
{
    return family != PortFamily::Nehalem;
}

bool
hasFma(PortFamily family)
{
    return family == PortFamily::Haswell ||
           family == PortFamily::Skylake || family == PortFamily::Zen;
}

} // namespace

PortLayout
portLayout(PortFamily family)
{
    switch (family) {
      case PortFamily::Nehalem:
        // One load port (2), store address on 3, store data on 4.
        return {6, mask({2}), mask({3}), mask({4}), mask({5})};
      case PortFamily::SandyBridge:
        // Two combined load/store-address ports.
        return {6, mask({2, 3}), mask({2, 3}), mask({4}), mask({5})};
      case PortFamily::Haswell:
        return {8, mask({2, 3}), mask({2, 3, 7}), mask({4}),
                mask({0, 6})};
      case PortFamily::Skylake:
        return {8, mask({2, 3}), mask({2, 3, 7}), mask({4}),
                mask({0, 6})};
      case PortFamily::Zen:
        return {10, mask({4, 5}), mask({4, 5}), mask({4, 5}),
                mask({0, 3})};
    }
    panic("unreachable port family");
}

bool
supportsOpcode(PortFamily family, Opcode op)
{
    switch (op) {
      case Opcode::VADDPS:
      case Opcode::VMULPS:
        return hasAvx(family);
      case Opcode::VFMADD231PS:
        return hasFma(family);
      default:
        return true;
    }
}

CoreTiming::CoreTiming(unsigned lat, std::initializer_list<PortMask> ports,
                       unsigned block)
    : latency(lat), numUops(static_cast<unsigned>(ports.size())),
      blockCycles(block)
{
    if (ports.size() > kMaxCoreUops)
        panic("too many core µops in a timing entry: ", ports.size());
    std::copy(ports.begin(), ports.end(), uopPorts.begin());
}

CoreTiming
coreTiming(PortFamily family, const Instruction &insn)
{
    const PortGroups g = portGroups(family);
    const bool skl = isSkylakePlus(family);

    auto single = [](unsigned lat, PortMask ports, unsigned block = 0) {
        return CoreTiming{lat, {ports}, block};
    };

    switch (insn.opcode) {
      case Opcode::MOV:
      case Opcode::MOVZX:
      case Opcode::MOVSX:
        // Pure loads/stores get their µops from the memory decomposition;
        // the core part is only needed for reg/imm forms.
        if (insn.memOperand())
            return CoreTiming{0, {}, 0};
        return single(1, g.alu);
      case Opcode::MOVNTI:
        return CoreTiming{0, {}, 0};
      case Opcode::LEA: {
        const auto *m = insn.memOperand();
        bool slow = m && m->mem.base != x86::Reg::Invalid &&
                    m->mem.index != x86::Reg::Invalid && m->mem.disp != 0;
        if (slow)
            return single(3, g.slowLea);
        return single(1, g.lea);
      }
      case Opcode::XCHG:
        return CoreTiming{2, {g.alu, g.alu, g.alu}, 0};
      case Opcode::PUSH:
      case Opcode::POP:
        // RSP update; memory µops are appended by the decoder.
        return single(1, g.alu);
      case Opcode::BSWAP:
        return CoreTiming{2, {g.shift, g.shift}, 0};
      case Opcode::CMOVZ:
      case Opcode::CMOVNZ:
      case Opcode::CMOVC:
      case Opcode::CMOVNC:
        if (skl)
            return single(1, g.shift);
        return CoreTiming{2, {g.alu, g.alu}, 0};
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::CMP:
      case Opcode::TEST:
      case Opcode::INC:
      case Opcode::DEC:
      case Opcode::NEG:
      case Opcode::NOT:
        return single(1, g.alu);
      case Opcode::ADC:
      case Opcode::SBB:
        if (family == PortFamily::Nehalem)
            return CoreTiming{2, {g.alu, g.alu}, 0};
        return single(skl ? 1 : 2, g.shift);
      case Opcode::IMUL:
        return single(3, g.mul);
      case Opcode::MUL:
        // Widening multiply: extra µop merges the high half.
        return CoreTiming{3, {g.mul, g.alu}, 0};
      case Opcode::DIV:
      case Opcode::IDIV: {
        bool w64 = insn.operands.empty() ||
                   insn.operands[0].widthBits == 64;
        unsigned lat = w64 ? 36 : 26;
        unsigned block = w64 ? 24 : 10;
        if (family == PortFamily::Zen) {
            lat = w64 ? 41 : 25;
            block = w64 ? 14 : 6;
        }
        return single(lat, g.div, block);
      }
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::SAR:
        return single(1, g.shift);
      case Opcode::ROL:
      case Opcode::ROR:
        return single(1, g.shift);
      case Opcode::POPCNT:
      case Opcode::LZCNT:
      case Opcode::TZCNT:
        return single(family == PortFamily::Zen ? 1 : 3, g.bitScan);
      case Opcode::BSF:
      case Opcode::BSR:
        return single(3, g.bitScan);
      case Opcode::BT:
      case Opcode::BTS:
      case Opcode::BTR:
        return single(1, g.shift);
      case Opcode::SETZ:
      case Opcode::SETNZ:
        return single(1, g.shift);
      case Opcode::JMP:
      case Opcode::JZ:
      case Opcode::JNZ:
      case Opcode::JC:
      case Opcode::JNC:
      case Opcode::JL:
      case Opcode::JGE:
      case Opcode::JLE:
      case Opcode::JG:
        return single(1, g.branch);
      case Opcode::CALL:
      case Opcode::RET:
        return single(1, g.branch);
      case Opcode::MOVAPS:
      case Opcode::MOVUPS:
        if (insn.memOperand())
            return CoreTiming{0, {}, 0};
        return single(1, g.vecAlu);
      case Opcode::PXOR:
      case Opcode::PADDD:
        return single(1, g.vecAlu);
      case Opcode::ADDPS:
      case Opcode::ADDPD:
      case Opcode::VADDPS:
        return single(skl ? 4 : 3, skl ? g.vecMul : g.vecAlu);
      case Opcode::MULPS:
      case Opcode::MULPD:
      case Opcode::VMULPS:
        return single(skl || family == PortFamily::Haswell ? 4 : 5,
                      g.vecMul);
      case Opcode::DIVPS:
        return single(11, g.vecDiv, 3);
      case Opcode::DIVPD:
        return single(14, g.vecDiv, 4);
      case Opcode::VFMADD231PS:
        return single(skl ? 4 : 5, g.vecMul);
      case Opcode::LFENCE:
      case Opcode::MFENCE:
      case Opcode::SFENCE:
        return CoreTiming{0, {}, 0};
      case Opcode::CPUID:
        // Variable portion is added by the machine (§IV-A1); this is the
        // fixed backbone.
        return CoreTiming{100, {g.alu, g.alu, g.alu, g.alu}, 0};
      case Opcode::PAUSE:
        return single(skl ? 4 : 1, g.alu);
      case Opcode::RDTSC:
        return CoreTiming{20, {g.alu, g.alu}, 0};
      case Opcode::RDPMC:
        return CoreTiming{25, {g.alu, g.alu}, 0};
      case Opcode::RDMSR:
        return CoreTiming{100, {g.alu, g.alu, g.alu}, 0};
      case Opcode::WRMSR:
        return CoreTiming{150, {g.alu, g.alu, g.alu}, 0};
      case Opcode::WBINVD:
        return CoreTiming{2000, {g.alu}, 0};
      case Opcode::CLFLUSH:
        return CoreTiming{2, {g.alu}, 0};
      case Opcode::PREFETCHT0:
      case Opcode::PREFETCHNTA:
        return CoreTiming{0, {}, 0};
      case Opcode::CLI:
      case Opcode::STI:
        return single(2, g.alu);
      case Opcode::NOP:
        // Issues but does not execute on any port.
        return CoreTiming{0, {}, 0};
      case Opcode::PFC_PAUSE:
      case Opcode::PFC_RESUME:
        return CoreTiming{0, {}, 0};
      default:
        break;
    }
    panic("no timing for opcode ",
          static_cast<unsigned>(insn.opcode));
}

} // namespace nb::uarch
