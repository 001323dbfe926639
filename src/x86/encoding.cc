/**
 * @file
 * Implementation of the byte encoding.
 */

#include "encoding.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nb::x86
{

namespace
{

// Stream layout: "NBC1" header, then one record per instruction.
// Instruction record: u16 opcode, u8 operand count, i32 branch target,
// operand records. Operand record: u8 kind, u16 width, payload.
// PFC_PAUSE/PFC_RESUME are emitted as their literal 8-byte magic patterns
// instead of a record, exactly like the real tool embeds magic bytes.

constexpr std::array<std::uint8_t, 4> kHeader = {'N', 'B', 'C', '1'};

// The writers take any byte sink with push_back(std::uint8_t): encode()
// fills a byte vector, writeHex() writes hex digits straight into a
// caller's buffer.

template <typename Sink>
void
putU16(Sink &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

template <typename Sink>
void
putI32(Sink &out, std::int32_t v)
{
    auto u = static_cast<std::uint32_t>(v);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFF));
}

template <typename Sink>
void
putI64(Sink &out, std::int64_t v)
{
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFF));
}

template <typename Sink>
void
putBytes(Sink &out, std::span<const std::uint8_t> bytes)
{
    for (std::uint8_t b : bytes)
        out.push_back(b);
}

/** Byte sink that writes two lowercase hex digits per byte. */
struct HexSink
{
    char *cursor;

    void
    push_back(std::uint8_t b)
    {
        static constexpr char digits[] = "0123456789abcdef";
        cursor[0] = digits[b >> 4];
        cursor[1] = digits[b & 0xF];
        cursor += 2;
    }
};

class Reader
{
  public:
    explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    bool atEnd() const { return pos_ >= bytes_.size(); }
    std::size_t remaining() const { return bytes_.size() - pos_; }

    std::uint8_t
    u8()
    {
        need(1);
        return bytes_[pos_++];
    }

    std::uint16_t
    u16()
    {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(
            bytes_[pos_] | (bytes_[pos_ + 1] << 8));
        pos_ += 2;
        return v;
    }

    std::int32_t
    i32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return static_cast<std::int32_t>(v);
    }

    std::int64_t
    i64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return static_cast<std::int64_t>(v);
    }

    /** Check whether the next bytes equal @p pattern, consuming on match. */
    bool
    tryMatch(std::span<const std::uint8_t> pattern)
    {
        if (remaining() < pattern.size())
            return false;
        if (!std::equal(pattern.begin(), pattern.end(),
                        bytes_.begin() + static_cast<std::ptrdiff_t>(pos_)))
            return false;
        pos_ += pattern.size();
        return true;
    }

  private:
    void
    need(std::size_t n)
    {
        if (remaining() < n)
            fatal("truncated instruction encoding");
    }

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

template <typename Sink>
void
encodeOperand(Sink &out, const Operand &op)
{
    out.push_back(static_cast<std::uint8_t>(op.kind));
    putU16(out, static_cast<std::uint16_t>(op.widthBits));
    switch (op.kind) {
      case OperandKind::Register:
        out.push_back(static_cast<std::uint8_t>(op.reg));
        break;
      case OperandKind::Immediate:
        putI64(out, op.imm);
        break;
      case OperandKind::Memory:
        out.push_back(static_cast<std::uint8_t>(op.mem.base));
        out.push_back(static_cast<std::uint8_t>(op.mem.index));
        out.push_back(op.mem.scale);
        putI64(out, op.mem.disp);
        break;
      case OperandKind::None:
        break;
    }
}

Operand
decodeOperand(Reader &r)
{
    Operand op;
    auto kind = r.u8();
    if (kind > static_cast<std::uint8_t>(OperandKind::Memory))
        fatal("bad operand kind ", static_cast<int>(kind),
              " in instruction encoding");
    op.kind = static_cast<OperandKind>(kind);
    op.widthBits = r.u16();
    switch (op.kind) {
      case OperandKind::Register:
        op.reg = static_cast<Reg>(r.u8());
        if (static_cast<unsigned>(op.reg) >=
            static_cast<unsigned>(Reg::NumRegs))
            fatal("bad register id in instruction encoding");
        break;
      case OperandKind::Immediate:
        op.imm = r.i64();
        break;
      case OperandKind::Memory:
        op.mem.base = static_cast<Reg>(r.u8());
        op.mem.index = static_cast<Reg>(r.u8());
        op.mem.scale = r.u8();
        op.mem.disp = r.i64();
        break;
      case OperandKind::None:
        break;
    }
    return op;
}

/** Bytes encodeOperand() writes for @p op. */
std::size_t
operandSize(const Operand &op)
{
    switch (op.kind) {
      case OperandKind::Register: return 3 + 1;
      case OperandKind::Immediate: return 3 + 8;
      case OperandKind::Memory: return 3 + 11;
      case OperandKind::None: return 3;
    }
    return 3;
}

/** Bytes encodeTo() writes for @p code. */
std::size_t
encodedSize(const std::vector<Instruction> &code)
{
    std::size_t size = kHeader.size();
    for (const auto &insn : code) {
        if (insn.opcode == Opcode::PFC_PAUSE ||
            insn.opcode == Opcode::PFC_RESUME) {
            size += kMagicPause.size();
            continue;
        }
        size += 2 + 1 + 4;
        for (const auto &op : insn.operands)
            size += operandSize(op);
    }
    return size;
}

template <typename Sink>
void
encodeTo(Sink &out, const std::vector<Instruction> &code)
{
    putBytes(out, kHeader);
    for (const auto &insn : code) {
        if (insn.opcode == Opcode::PFC_PAUSE) {
            putBytes(out, kMagicPause);
            continue;
        }
        if (insn.opcode == Opcode::PFC_RESUME) {
            putBytes(out, kMagicResume);
            continue;
        }
        putU16(out, static_cast<std::uint16_t>(insn.opcode));
        NB_ASSERT(insn.operands.size() <= 4, "too many operands");
        out.push_back(static_cast<std::uint8_t>(insn.operands.size()));
        putI32(out, insn.targetIdx);
        for (const auto &op : insn.operands)
            encodeOperand(out, op);
    }
}

} // namespace

std::vector<std::uint8_t>
encode(const std::vector<Instruction> &code)
{
    std::vector<std::uint8_t> out;
    out.reserve(encodedSize(code));
    encodeTo(out, code);
    return out;
}

std::size_t
hexSize(const std::vector<Instruction> &code)
{
    return code.empty() ? 0 : 2 * encodedSize(code);
}

char *
writeHex(char *out, const std::vector<Instruction> &code)
{
    if (code.empty())
        return out;
    HexSink sink{out};
    encodeTo(sink, code);
    return sink.cursor;
}

std::vector<Instruction>
decode(std::span<const std::uint8_t> bytes)
{
    Reader r(bytes);
    if (!r.tryMatch(kHeader))
        fatal("missing NBC1 header in encoded code");
    std::vector<Instruction> code;
    while (!r.atEnd()) {
        if (r.tryMatch(kMagicPause)) {
            Instruction insn;
            insn.opcode = Opcode::PFC_PAUSE;
            code.push_back(std::move(insn));
            continue;
        }
        if (r.tryMatch(kMagicResume)) {
            Instruction insn;
            insn.opcode = Opcode::PFC_RESUME;
            code.push_back(std::move(insn));
            continue;
        }
        Instruction insn;
        auto opcode = r.u16();
        if (opcode >= static_cast<std::uint16_t>(Opcode::NumOpcodes))
            fatal("bad opcode ", opcode, " in instruction encoding");
        insn.opcode = static_cast<Opcode>(opcode);
        auto n_ops = r.u8();
        if (n_ops > 4)
            fatal("bad operand count in instruction encoding");
        insn.targetIdx = r.i32();
        for (unsigned i = 0; i < n_ops; ++i)
            insn.operands.push_back(decodeOperand(r));
        code.push_back(std::move(insn));
    }
    return code;
}

} // namespace nb::x86
