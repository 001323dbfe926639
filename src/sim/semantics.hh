/**
 * @file
 * Pure value-semantics helpers shared by the two executors (the
 * threaded dispatcher in dispatch.cc and the frozen reference path in
 * exec.cc): float/double bit casts, packed-lane maps, and width masks.
 * Internal to sim/; no state, no timing.
 */

#ifndef NB_SIM_SEMANTICS_HH
#define NB_SIM_SEMANTICS_HH

#include <cstdint>
#include <cstring>

#include "common/types.hh"

namespace nb::sim
{

inline float
asFloat(std::uint32_t bits_)
{
    float f;
    std::memcpy(&f, &bits_, sizeof(f));
    return f;
}

inline std::uint32_t
asBits(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

inline double
asDouble(std::uint64_t bits_)
{
    double d;
    std::memcpy(&d, &bits_, sizeof(d));
    return d;
}

inline std::uint64_t
asBits(double d)
{
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

/** Apply a float op to each 32-bit lane of the used lanes. */
template <typename F>
VecReg
mapPs(const VecReg &a, const VecReg &b, unsigned width_bits, F &&f)
{
    VecReg out{};
    unsigned lanes64 = width_bits / 64;
    for (unsigned i = 0; i < lanes64; ++i) {
        std::uint32_t lo = f(asFloat(static_cast<std::uint32_t>(a[i])),
                             asFloat(static_cast<std::uint32_t>(b[i])));
        std::uint32_t hi = f(asFloat(static_cast<std::uint32_t>(a[i] >> 32)),
                             asFloat(static_cast<std::uint32_t>(b[i] >> 32)));
        out[i] = static_cast<std::uint64_t>(hi) << 32 | lo;
    }
    return out;
}

/** Apply a double op to each 64-bit lane. */
template <typename F>
VecReg
mapPd(const VecReg &a, const VecReg &b, unsigned width_bits, F &&f)
{
    VecReg out{};
    for (unsigned i = 0; i < width_bits / 64; ++i)
        out[i] = asBits(f(asDouble(a[i]), asDouble(b[i])));
    return out;
}

NB_ALWAYS_INLINE inline std::uint64_t
widthMask(unsigned width_bits)
{
    return width_bits >= 64 ? ~0ULL : (1ULL << width_bits) - 1;
}

NB_ALWAYS_INLINE inline std::uint64_t
signBit(unsigned width_bits)
{
    return 1ULL << (width_bits - 1);
}

} // namespace nb::sim

#endif // NB_SIM_SEMANTICS_HH
