/**
 * @file
 * Fundamental typedefs shared across the library.
 */

#ifndef NB_COMMON_TYPES_HH
#define NB_COMMON_TYPES_HH

#include <cstdint>

/** Force a small hot-path function inline (GCC and Clang), or keep a
 *  cold one out of line. On a lambda it goes between the parameter
 *  list and the body. */
#define NB_ALWAYS_INLINE __attribute__((always_inline))
#define NB_NOINLINE __attribute__((noinline))

namespace nb
{

/** A (virtual or physical) byte address in the simulated machine. */
using Addr = std::uint64_t;

/** A duration or timestamp in simulated core clock cycles. */
using Cycles = std::uint64_t;

/** Size of a cache line in bytes on every modelled microarchitecture. */
inline constexpr Addr kCacheLineSize = 64;

/** Size of a virtual/physical memory page. */
inline constexpr Addr kPageSize = 4096;

} // namespace nb

#endif // NB_COMMON_TYPES_HH
