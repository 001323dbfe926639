/**
 * @file
 * Implementation of the Intel-syntax assembler.
 */

#include "assembler.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>

#include "common/logging.hh"
#include "common/strings.hh"

namespace nb::x86
{

namespace
{

/** Split source into statements at ';' and newlines. */
std::vector<std::string>
splitStatements(std::string_view source)
{
    std::vector<std::string> stmts;
    std::string current;
    for (char c : source) {
        if (c == ';' || c == '\n') {
            stmts.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    stmts.push_back(current);
    return stmts;
}

/** Strip a '#' comment. */
std::string
stripComment(const std::string &line)
{
    auto pos = line.find('#');
    if (pos == std::string::npos)
        return line;
    return line.substr(0, pos);
}

struct SizeKeyword
{
    const char *name;
    unsigned bits;
};

constexpr SizeKeyword kSizeKeywords[] = {
    {"byte", 8}, {"word", 16}, {"dword", 32}, {"qword", 64},
    {"xmmword", 128}, {"ymmword", 256},
};

/**
 * Parse a memory operand body (text between '[' and ']') into a MemRef.
 * Accepted grammar: term (('+'|'-') term)* where each term is a register,
 * reg*scale, or an integer displacement.
 */
MemRef
parseMemBody(std::string_view body, const std::string &context)
{
    MemRef m;
    std::string text(body);
    std::size_t i = 0;
    bool negative = false;
    bool first = true;
    while (i <= text.size()) {
        // Collect the next term up to +/-.
        std::size_t start = i;
        while (i < text.size() && text[i] != '+' && text[i] != '-')
            ++i;
        std::string term = trim(text.substr(start, i - start));
        if (term.empty() && !first)
            fatal("empty term in memory operand '", context, "'");
        if (!term.empty()) {
            // reg*scale?
            auto star = term.find('*');
            if (star != std::string::npos) {
                auto reg_txt = trim(term.substr(0, star));
                auto scale_txt = trim(term.substr(star + 1));
                auto pr = parseReg(reg_txt);
                auto sc = parseInt(scale_txt);
                // Also allow "4*RSI".
                if (!pr) {
                    pr = parseReg(scale_txt);
                    sc = parseInt(reg_txt);
                }
                if (!pr || !sc)
                    fatal("bad scaled-index term '", term, "' in '",
                          context, "'");
                if (negative)
                    fatal("negative index register in '", context, "'");
                if (*sc != 1 && *sc != 2 && *sc != 4 && *sc != 8)
                    fatal("scale must be 1, 2, 4, or 8 in '", context, "'");
                if (m.index != Reg::Invalid)
                    fatal("multiple index registers in '", context, "'");
                m.index = pr->reg;
                m.scale = static_cast<std::uint8_t>(*sc);
            } else if (auto pr = parseReg(term)) {
                if (negative)
                    fatal("cannot subtract a register in '", context, "'");
                if (m.base == Reg::Invalid) {
                    m.base = pr->reg;
                } else if (m.index == Reg::Invalid) {
                    m.index = pr->reg;
                    m.scale = 1;
                } else {
                    fatal("too many registers in '", context, "'");
                }
            } else if (auto v = parseInt(term)) {
                m.disp += negative ? -*v : *v;
            } else {
                fatal("cannot parse term '", term, "' in memory operand '",
                      context, "'");
            }
        }
        if (i >= text.size())
            break;
        negative = text[i] == '-';
        ++i;
        first = false;
    }
    if (m.base == Reg::Invalid && m.index == Reg::Invalid && m.disp == 0)
        fatal("empty memory operand in '", context, "'");
    return m;
}

/**
 * An immediate literal: whatever parseInt accepts, or an unsigned
 * literal up to 2^64-1, kept as its 64-bit two's complement (so
 * 0xFFFFFFFFFFFFFFFF is the same immediate as -1). Larger values and
 * negative ones below INT64_MIN are rejected.
 */
std::optional<std::int64_t>
parseImmediate(std::string_view text)
{
    if (auto v = parseInt(text))
        return v;
    const std::string buf = trim(text);
    if (buf.empty() || buf.front() == '-')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return std::nullopt;
    return static_cast<std::int64_t>(v);
}

/** Parse one operand (register, immediate, or memory reference). */
Operand
parseOperand(std::string_view text, const std::string &context)
{
    std::string t = trim(text);
    if (t.empty())
        fatal("empty operand in '", context, "'");

    // Optional size keyword: "qword ptr [..]" or "qword [..]".
    unsigned mem_width = 0;
    std::string lower = toLower(t);
    for (const auto &kw : kSizeKeywords) {
        std::string with_ptr = std::string(kw.name) + " ptr ";
        std::string without_ptr = std::string(kw.name) + " ";
        if (startsWith(lower, with_ptr)) {
            mem_width = kw.bits;
            t = trim(t.substr(with_ptr.size()));
            break;
        }
        if (startsWith(lower, without_ptr) &&
            lower.find('[') != std::string::npos) {
            mem_width = kw.bits;
            t = trim(t.substr(without_ptr.size()));
            break;
        }
    }

    if (!t.empty() && t.front() == '[') {
        if (t.back() != ']')
            fatal("unterminated memory operand in '", context, "'");
        MemRef m = parseMemBody(
            std::string_view(t).substr(1, t.size() - 2), context);
        // Width 0 = unspecified; fixed up from the register operand.
        return Operand::makeMem(m, mem_width);
    }
    if (mem_width != 0)
        fatal("size keyword without memory operand in '", context, "'");

    if (auto pr = parseReg(t))
        return Operand::makeReg(pr->reg, pr->widthBits);

    if (auto v = parseImmediate(t))
        return Operand::makeImm(*v);

    fatal("cannot parse operand '", std::string(t), "' in '", context, "'");
}

/** Split the operand list on top-level commas (none occur inside []). */
std::vector<std::string>
splitOperands(std::string_view text)
{
    std::vector<std::string> out;
    int depth = 0;
    std::string current;
    for (char c : text) {
        if (c == '[')
            ++depth;
        else if (c == ']')
            --depth;
        if (c == ',' && depth == 0) {
            out.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!trim(current).empty() || !out.empty())
        out.push_back(current);
    return out;
}

bool
isIdentifier(std::string_view s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_' &&
        s[0] != '.')
        return false;
    for (char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.')
            return false;
    }
    return true;
}

} // namespace

std::vector<Instruction>
assemble(std::string_view source)
{
    std::vector<Instruction> code;
    std::map<std::string, std::int32_t> labels;

    for (const auto &raw : splitStatements(source)) {
        std::string stmt = trim(stripComment(raw));
        if (stmt.empty())
            continue;

        // Leading labels ("name: insn" or a bare "name:").
        for (;;) {
            auto colon = stmt.find(':');
            if (colon == std::string::npos)
                break;
            std::string head = trim(stmt.substr(0, colon));
            if (!isIdentifier(head))
                break;
            if (labels.count(head))
                fatal("duplicate label '", head, "'");
            labels[head] = static_cast<std::int32_t>(code.size());
            stmt = trim(stmt.substr(colon + 1));
        }
        if (stmt.empty())
            continue;

        // Mnemonic is the first whitespace-delimited token.
        std::size_t sp = 0;
        while (sp < stmt.size() &&
               !std::isspace(static_cast<unsigned char>(stmt[sp])))
            ++sp;
        std::string mnemonic = stmt.substr(0, sp);
        std::string rest = trim(stmt.substr(sp));

        bool ok = false;
        Instruction insn;
        insn.opcode = parseMnemonic(mnemonic, &ok);
        if (!ok)
            fatal("unknown mnemonic '", mnemonic, "' in '", stmt, "'");

        if (insn.isBranch() && !rest.empty() && isIdentifier(rest) &&
            !parseReg(rest)) {
            // Branch to a label.
            insn.label = rest;
        } else if (!rest.empty()) {
            for (const auto &op_text : splitOperands(rest))
                insn.operands.push_back(parseOperand(op_text, stmt));
        }
        if (insn.operands.size() > 3)
            fatal("too many operands in '", stmt, "'");
        // Unspecified memory widths default to the width of the first
        // register operand (e.g. "movaps [R14], XMM1" moves 128 bits).
        unsigned reg_width = 0;
        for (const auto &op : insn.operands) {
            if (op.kind == OperandKind::Register) {
                reg_width = op.widthBits;
                break;
            }
        }
        for (auto &op : insn.operands) {
            if (op.kind == OperandKind::Memory && op.widthBits == 0)
                op.widthBits = reg_width ? reg_width : 64;
        }
        code.push_back(std::move(insn));
    }

    // Resolve label targets.
    for (auto &insn : code) {
        if (insn.label.empty())
            continue;
        auto it = labels.find(insn.label);
        if (it == labels.end())
            fatal("undefined label '", insn.label, "'");
        insn.targetIdx = it->second;
    }
    return code;
}

} // namespace nb::x86
