/**
 * @file
 * Architectural register state of the simulated core.
 */

#ifndef NB_SIM_ARCH_STATE_HH
#define NB_SIM_ARCH_STATE_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "x86/reg.hh"

namespace nb::sim
{

/** 256-bit vector register as four 64-bit lanes. */
using VecReg = std::array<std::uint64_t, 4>;

/** All architectural registers plus the status flags the model tracks. */
struct ArchState
{
    std::array<std::uint64_t, x86::kNumGprs> gpr{};
    std::array<VecReg, x86::kNumVecRegs> vec{};
    bool zf = false;
    bool cf = false;
    bool sf = false;
    bool of = false;

    /** Read a GPR at a given width (zero-extended into 64 bits). */
    NB_ALWAYS_INLINE std::uint64_t
    readGpr(x86::Reg r, unsigned width_bits) const
    {
        NB_ASSERT(x86::isGpr(r), "readGpr of non-GPR");
        std::uint64_t v = gpr[static_cast<unsigned>(r)];
        switch (width_bits) {
          case 64:
            return v;
          case 32:
            return v & 0xFFFFFFFFULL;
          case 16:
            return v & 0xFFFFULL;
          case 8:
            return v & 0xFFULL;
          default:
            panic("bad GPR width ", width_bits);
        }
    }

    /**
     * Write a GPR at a given width. 32-bit writes zero the upper half
     * (x86-64 semantics); 8/16-bit writes merge into the low bits.
     */
    NB_ALWAYS_INLINE void
    writeGpr(x86::Reg r, unsigned width_bits, std::uint64_t value)
    {
        NB_ASSERT(x86::isGpr(r), "writeGpr of non-GPR");
        std::uint64_t &slot = gpr[static_cast<unsigned>(r)];
        switch (width_bits) {
          case 64:
            slot = value;
            break;
          case 32:
            slot = value & 0xFFFFFFFFULL;
            break;
          case 16:
            slot = (slot & ~0xFFFFULL) | (value & 0xFFFFULL);
            break;
          case 8:
            slot = (slot & ~0xFFULL) | (value & 0xFFULL);
            break;
          default:
            panic("bad GPR width ", width_bits);
        }
    }

    const VecReg &
    readVec(x86::Reg r) const
    {
        NB_ASSERT(x86::isVec(r), "readVec of non-vector reg");
        return vec[static_cast<unsigned>(r) - x86::kNumGprs];
    }

    void
    writeVec(x86::Reg r, const VecReg &value)
    {
        NB_ASSERT(x86::isVec(r), "writeVec of non-vector reg");
        vec[static_cast<unsigned>(r) - x86::kNumGprs] = value;
    }
};

} // namespace nb::sim

#endif // NB_SIM_ARCH_STATE_HH
