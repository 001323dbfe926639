/**
 * @file
 * Binary encoding of instruction sequences.
 *
 * nanoBench accepts microbenchmarks either as assembly text or as "a
 * binary file containing x86 machine code" (paper §III-E), and the kernel
 * module receives the code as a byte blob written to a virtual file
 * (§IV-C). This module provides the byte-level representation for those
 * paths. The encoding is a compact custom format (documented in DESIGN.md
 * as a substitution for real x86 machine code); encode/decode round-trip
 * exactly.
 *
 * The magic byte sequences for pausing/resuming performance counters
 * (paper §III-I) are fixed 8-byte patterns embedded literally in the
 * stream; the code generator later replaces them with counter-access code
 * (§IV-B).
 */

#ifndef NB_X86_ENCODING_HH
#define NB_X86_ENCODING_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "x86/instruction.hh"

namespace nb::x86
{

/** Magic byte sequence that pauses performance counting (§III-I). */
inline constexpr std::array<std::uint8_t, 8> kMagicPause = {
    0x8F, 0x70, 0xC1, 0x1E, 0x83, 0x55, 0x9A, 0x2B};

/** Magic byte sequence that resumes performance counting (§III-I). */
inline constexpr std::array<std::uint8_t, 8> kMagicResume = {
    0x8F, 0x70, 0xC1, 0x1E, 0x83, 0x55, 0x9A, 0x2C};

/** Encode a sequence of instructions into a byte blob. */
std::vector<std::uint8_t> encode(const std::vector<Instruction> &code);

/** Length of writeHex()'s text for @p code: two digits per encode()
 *  byte, or 0 for empty code. */
std::size_t hexSize(const std::vector<Instruction> &code);

/**
 * Write encode(@p code) as lowercase hex, two digits per byte, to the
 * hexSize(@p code) chars at @p out, without building the byte blob;
 * return the end of the text. Empty code writes nothing (not even the
 * header).
 */
char *writeHex(char *out, const std::vector<Instruction> &code);

/**
 * Decode a byte blob produced by encode(). Magic pause/resume sequences
 * decode to PFC_PAUSE/PFC_RESUME pseudo-instructions.
 *
 * @throws nb::FatalError on malformed input.
 */
std::vector<Instruction> decode(std::span<const std::uint8_t> bytes);

} // namespace nb::x86

#endif // NB_X86_ENCODING_HH
