/**
 * @file
 * Spec static analyzer: dataflow over the predecoded program IR.
 *
 * The dataflow core is the Data walk of analysis/defuse.hh, which the
 * bound analyzer shares: per register (RFLAGS included), the
 * *segment-entry* registers its current value derives from. One linear
 * walk over init then body evaluates every rule except the chain rule;
 * R3 walks the body twice more (zero idioms honored / treated as plain
 * reads) and looks for a cycle in the written-register dependency
 * relation -- a cycle is exactly a loop-carried chain across unroll
 * copies. Control flow inside the body is ignored (straight-line
 * over-approximation): branches contribute their register and flags
 * reads but do not fork the state, which keeps the walk linear and is
 * precise for every spec the planners emit.
 */

#include "analysis/analysis.hh"

#include <algorithm>
#include <span>

#include "analysis/bound.hh"
#include "analysis/defuse.hh"
#include "core/memo.hh"
#include "core/result.hh"
#include "uarch/timing.hh"

namespace nb::analysis
{

using x86::Instruction;
using x86::Opcode;
using x86::Reg;

namespace
{

using defuse::kNoPath;
using sim::slotOf;
using sim::usedSlots;

using Mask = std::uint64_t;

/** The bit of a register (readiness slot) in a Mask. */
constexpr Mask
slotBit(std::uint8_t slot)
{
    return Mask{1} << slot;
}

constexpr Mask
regBit(Reg r)
{
    return slotBit(slotOf(r));
}

Mask
maskOf(std::span<const std::uint8_t> slots)
{
    Mask m = 0;
    for (std::uint8_t s : slots)
        m |= slotBit(s);
    return m;
}

/** Whether an entry reads / writes the flags (kFlagsSlot in its
 *  src / dst slots). */
bool
readsFlags(const sim::EntryPlan &p)
{
    return sim::hasSlot(p.src, sim::kFlagsSlot);
}

bool
writesFlags(const sim::EntryPlan &p)
{
    return sim::hasSlot(p.dst, sim::kFlagsSlot);
}

/** Width in bits with which entry @p e writes register @p r (64 for
 *  implicit destinations). A write of < 32 bits merges with the old
 *  value instead of replacing it, so it does not kill a pending def. */
unsigned
defWidth(const sim::Program &prog, std::size_t e, Reg r)
{
    const Instruction &insn = prog.insn(e);
    if (!insn.operands.empty() &&
        insn.operands[0].kind == x86::OperandKind::Register &&
        insn.operands[0].reg == r)
        return insn.operands[0].widthBits;
    return 64;
}

/** Does this opcode read only CF of the flags (ADC/SBB and the
 *  carry-conditional operations)? Every other flags reader in the
 *  subset consumes ZF/SF/OF. */
bool
readsOnlyCarry(Opcode op)
{
    return op == Opcode::ADC || op == Opcode::SBB ||
           op == Opcode::CMOVC || op == Opcode::CMOVNC ||
           op == Opcode::JC || op == Opcode::JNC;
}

/** Does this opcode leave CF = 0 unconditionally (the logic group,
 *  which clears CF and OF)? The counter readout's OR accumulation has
 *  the same guarantee, so CF = 0 established in init *does* survive
 *  the readout. */
bool
clearsCarry(Opcode op)
{
    return op == Opcode::TEST || op == Opcode::AND ||
           op == Opcode::OR || op == Opcode::XOR;
}

/** InstrClasses whose register results are side effects of the
 *  measured behaviour, not candidates for the dead-code rule. */
bool
deadRuleExemptClass(x86::InstrClass cls)
{
    using IC = x86::InstrClass;
    return cls == IC::Fence || cls == IC::Serialize ||
           cls == IC::CounterRead || cls == IC::System ||
           cls == IC::Nop || cls == IC::Magic;
}

void
addDiag(Report &rep, const char *rule, Severity sev, Segment seg,
        std::int32_t index, std::string insn, std::string message)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.segment = seg;
    d.index = index;
    d.insn = std::move(insn);
    d.message = std::move(message);
    rep.diagnostics.push_back(std::move(d));
}

} // namespace

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

const char *
segmentName(Segment segment)
{
    return segment == Segment::Init ? "init" : "body";
}

std::string
Diagnostic::format() const
{
    std::string out = severityName(severity);
    out += ' ';
    out += rule;
    out += ' ';
    out += segmentName(segment);
    if (index >= 0) {
        out += '[';
        out += std::to_string(index);
        out += ']';
    }
    if (!insn.empty()) {
        out += " \"";
        out += insn;
        out += '"';
    }
    out += ": ";
    out += message;
    return out;
}

std::size_t
Report::count(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        n += d.severity == severity ? 1 : 0;
    return n;
}

std::size_t
Report::countAtLeast(Severity severity) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diagnostics) {
        n += static_cast<int>(d.severity) >=
                     static_cast<int>(severity)
                 ? 1
                 : 0;
    }
    return n;
}

bool
Report::hasRule(std::string_view rule) const
{
    for (const Diagnostic &d : diagnostics) {
        if (d.rule == rule)
            return true;
    }
    return false;
}

std::string
Report::format() const
{
    std::string out;
    for (const Diagnostic &d : diagnostics) {
        out += d.format();
        out += '\n';
    }
    return out;
}

std::string
Report::toJson() const
{
    std::string out = "{\"diagnostics\": [";
    bool first = true;
    for (const Diagnostic &d : diagnostics) {
        if (!first)
            out += ", ";
        first = false;
        out += "\n  {\"rule\": \"";
        out += core::jsonEscape(d.rule);
        out += "\", \"severity\": \"";
        out += severityName(d.severity);
        out += "\", \"segment\": \"";
        out += segmentName(d.segment);
        out += "\", \"index\": ";
        out += std::to_string(d.index);
        out += ", \"insn\": \"";
        out += core::jsonEscape(d.insn);
        out += "\", \"message\": \"";
        out += core::jsonEscape(d.message);
        out += "\"}";
    }
    out += diagnostics.empty() ? "]}" : "\n]}";
    out += '\n';
    return out;
}

namespace
{
const char *const kCsvHeader = "rule,severity,segment,index,insn,message";
} // namespace

std::string
Report::toCsv() const
{
    std::string out = kCsvHeader;
    out += '\n';
    for (const Diagnostic &d : diagnostics) {
        out += core::csvEscape(d.rule);
        out += ',';
        out += severityName(d.severity);
        out += ',';
        out += segmentName(d.segment);
        out += ',';
        out += std::to_string(d.index);
        out += ',';
        out += core::csvEscape(d.insn);
        out += ',';
        out += core::csvEscape(d.message);
        out += '\n';
    }
    return out;
}

Context
Context::forRunner(const core::Runner &runner)
{
    Context ctx;
    ctx.mode = runner.mode();
    ctx.r14Base = runner.r14Area();
    ctx.r14Size = runner.r14AreaSize();
    ctx.resultBase = runner.resultArea();
    ctx.resultSize = core::layout::kAreaSize;
    return ctx;
}

Report
analyzeSpec(const uarch::MicroArch &ua,
            const core::BenchmarkSpec &spec, const Context &ctx)
{
    Report rep;

    std::vector<Instruction> init_code =
        defuse::segmentCode(spec.init, spec.asmInit);
    std::vector<Instruction> body_code =
        defuse::segmentCode(spec.code, spec.asmCode);

    // R0: unsupported opcodes, with position (the decode-time fault,
    // as a diagnostic instead of a FatalError).
    bool unsupported = false;
    auto scan_r0 = [&](const std::vector<Instruction> &code,
                       Segment seg) {
        for (std::size_t i = 0; i < code.size(); ++i) {
            if (uarch::supportsOpcode(ua.family, code[i].opcode))
                continue;
            unsupported = true;
            addDiag(rep, "R0", Severity::Error, seg,
                    static_cast<std::int32_t>(i), code[i].toString(),
                    std::string(code[i].info().mnemonic) +
                        " is not supported on " + ua.name);
        }
    };
    scan_r0(init_code, Segment::Init);
    scan_r0(body_code, Segment::Body);
    if (unsupported)
        return rep; // decode would fault; nothing else to analyze

    const sim::Program init_prog =
        defuse::decodeSegment(ua, std::move(init_code), 1);
    const sim::Program body_prog =
        defuse::decodeSegment(ua, std::move(body_code), spec.unrollCount);

    const Mask r14_bit = regBit(Reg::R14);
    const Mask r15_bit = regBit(Reg::R15);
    const std::uint8_t r14 = slotOf(Reg::R14);

    // Register derivation from the init-entry values, carried from
    // init into the body.
    defuse::Walk flow;
    bool r14_exact = true;       // R14 still holds the segment-entry
                                 // value (R5 bounds are meaningful)
    bool init_writes_flags = false;
    Opcode last_init_flags_writer = Opcode::NOP;

    // R5a/R5b, shared by both segments.
    auto check_memory = [&](const sim::Program &prog, std::size_t e,
                            Segment seg) {
        const auto idx = static_cast<std::int32_t>(e);
        const Instruction &insn = prog.insn(e);
        const bool is_store =
            (prog.plan(e).flags & sim::planflag::kStoreUops) != 0;
        const x86::Operand *mem = insn.memOperand();
        if (!mem)
            return;
        unsigned bytes = std::max(1u, mem->widthBits / 8);
        if (mem->mem.base == Reg::R14 &&
            mem->mem.index == Reg::Invalid && r14_exact) {
            if (mem->mem.disp < 0 ||
                static_cast<Addr>(mem->mem.disp) + bytes >
                    ctx.r14Size) {
                addDiag(rep, "R5", Severity::Error, seg, idx,
                        insn.toString(),
                        "R14-relative access at offset " +
                            std::to_string(mem->mem.disp) + " (" +
                            std::to_string(bytes) +
                            " bytes) leaves the reserved " +
                            std::to_string(ctx.r14Size) +
                            "-byte memory area");
            }
        }
        if (mem->mem.base == Reg::Invalid &&
            mem->mem.index == Reg::Invalid && ctx.resultBase != 0 &&
            !spec.noMem && mem->mem.disp >= 0) {
            Addr addr = static_cast<Addr>(mem->mem.disp);
            if (addr < ctx.resultBase + ctx.resultSize &&
                addr + bytes > ctx.resultBase) {
                addDiag(rep, "R5",
                        is_store ? Severity::Error : Severity::Warning,
                        seg, idx, insn.toString(),
                        std::string(is_store ? "store to"
                                             : "load from") +
                            " the measurement results area (counter "
                            "readouts live at this address)");
            }
        }
    };

    // Init pass: carries register derivation into the body; its own
    // rules are R5 (above) and the R6 precondition.
    for (std::size_t i = 0; i < init_prog.entryCount(); ++i) {
        check_memory(init_prog, i, Segment::Init);
        if (writesFlags(init_prog.plan(i))) {
            init_writes_flags = true;
            last_init_flags_writer = init_prog.insn(i).opcode;
        }
        defuse::Edges edges = defuse::entryEdges(ua, init_prog, i);
        flow.advance(edges, defuse::View::Data);
        if (maskOf(edges.out) & r14_bit)
            r14_exact = flow.dist[r14][r14] != kNoPath;
    }

    // Body pass.
    const auto &accs = core::noMemAccumulators();
    Mask acc_reported = 0;
    bool body_wrote_flags = false;
    std::int32_t first_flags_reader = -1;
    bool pre_write_reads_only_cf = true;
    const std::uint64_t body_repeat =
        std::max<std::uint64_t>(1, spec.unrollCount);
    std::vector<Mask> body_uses, body_defs; // R4 reads them after

    for (std::size_t i = 0; i < body_prog.entryCount(); ++i) {
        const sim::EntryPlan &p = body_prog.plan(i);
        const Instruction &insn = body_prog.insn(i);
        auto idx = static_cast<std::int32_t>(i);
        // What the entry reads and writes: its data inputs plus every
        // address register (a store reads its address too), and its
        // written slots. A zero idiom's register is deliberately no
        // use: `mov RAX, 5; xor RAX, RAX` does leave the 5 unread.
        const defuse::Edges edges = defuse::entryEdges(ua, body_prog, i);
        Mask uses = maskOf(usedSlots(p.addr));
        for (const defuse::Input &in : edges.inputs())
            uses |= slotBit(in.slot);
        const Mask defs = maskOf(edges.out);
        body_uses.push_back(uses);
        body_defs.push_back(defs);

        check_memory(body_prog, i, Segment::Body);

        // R2: noMem accumulator interference (§III-I).
        if (spec.noMem) {
            for (Reg acc : accs) {
                Mask ab = regBit(acc);
                if (acc_reported & ab)
                    continue;
                if (defs & ab) {
                    acc_reported |= ab;
                    addDiag(rep, "R2", Severity::Error, Segment::Body,
                            idx, insn.toString(),
                            "the body writes " + x86::regName(acc) +
                                ", a noMem readout accumulator; the "
                                "measured counter values are "
                                "corrupted");
                } else if (uses & ab) {
                    acc_reported |= ab;
                    addDiag(rep, "R2", Severity::Warning,
                            Segment::Body, idx, insn.toString(),
                            "the body reads " + x86::regName(acc) +
                                ", a noMem readout accumulator "
                                "holding measurement state");
                }
            }
        }

        // R6: flags set in init do not survive the counter readout
        // (the per-item SHL/OR accumulation rewrites RFLAGS between
        // init and the first body instruction).
        if (readsFlags(p) && !body_wrote_flags) {
            if (first_flags_reader < 0)
                first_flags_reader = idx;
            pre_write_reads_only_cf =
                pre_write_reads_only_cf && readsOnlyCarry(insn.opcode);
        }
        if (writesFlags(p))
            body_wrote_flags = true;

        // R1: measurement-reserved registers (R15 loop counter,
        // §III-B; R14 memory-area base, §III-G).
        if ((defs & r15_bit) && spec.loopCount > 0) {
            std::string msg =
                "the body writes R15, the measurement loop counter "
                "(loopCount = " +
                std::to_string(spec.loopCount) + ")";
            if (body_repeat > 1) {
                msg += "; one static write is " +
                       std::to_string(body_repeat) +
                       " dynamic clobbers across the unrolled copies";
            }
            addDiag(rep, "R1", Severity::Error, Segment::Body, idx,
                    insn.toString(), std::move(msg));
        }

        flow.advance(edges, defuse::View::Data);

        if (defs & r14_bit) {
            if (flow.dist[r14][r14] == kNoPath) {
                std::string msg =
                    "the body overwrites R14 with a value not "
                    "derived from the memory-area base; later "
                    "R14-relative accesses leave the reserved area";
                if (body_repeat > 1) {
                    msg += " (" + std::to_string(body_repeat) +
                           " dynamic clobbers across the unrolled "
                           "copies)";
                }
                addDiag(rep, "R1", Severity::Warning, Segment::Body,
                        idx, insn.toString(), std::move(msg));
            }
            r14_exact = false;
        }
    }

    // The one flag state that *does* survive the readout is CF = 0:
    // the readout's OR accumulation clears CF, so an init that ends
    // on a CF-clearing logic instruction feeding only carry readers
    // (the planners' "TEST RBX, RBX before an ADC chain" pattern) is
    // sound and stays silent.
    bool init_flags_survive =
        pre_write_reads_only_cf && clearsCarry(last_init_flags_writer);
    if (init_writes_flags && first_flags_reader >= 0 &&
        !init_flags_survive) {
        addDiag(rep, "R6", Severity::Warning, Segment::Body,
                first_flags_reader,
                body_prog
                    .insn(static_cast<std::size_t>(first_flags_reader))
                    .toString(),
                "reads flags before the body writes them, but the "
                "flags set in init do not survive the counter "
                "readout between init and body (the readout's "
                "SHL/OR accumulation rewrites RFLAGS; only CF = 0 "
                "from a trailing logic instruction survives)");
    }

    // R3: loop-carried dependency chain (latency methodology,
    // §III-A; uops.info dependency-chaining): a cycle through the
    // written registers (RFLAGS included -- the SETcc/TEST chain is a
    // flags cycle) of a Data walk over the body. R7 reads it too.
    auto chain = [&](bool idiom_reads) {
        return !defuse::maxCycleMean(defuse::walk(ua, body_prog,
                                                  defuse::View::Data,
                                                  idiom_reads))
                    .regs.empty();
    };
    const bool chain_real = chain(false);
    if (ctx.chain != Context::Chain::Ignore &&
        body_prog.entryCount() > 0) {
        bool chain_if_idioms_read = chain(true);
        std::int32_t first_idiom = -1;
        std::size_t idiom_count = 0;
        for (std::size_t i = 0; i < body_prog.entryCount(); ++i) {
            if (!(body_prog.plan(i).flags & sim::planflag::kZeroIdiom))
                continue;
            ++idiom_count;
            if (first_idiom < 0)
                first_idiom = static_cast<std::int32_t>(i);
        }
        if (ctx.chain == Context::Chain::Expect && !chain_real) {
            if (chain_if_idioms_read && first_idiom >= 0) {
                addDiag(rep, "R3", Severity::Error, Segment::Body,
                        first_idiom,
                        body_prog
                            .insn(static_cast<std::size_t>(first_idiom))
                            .toString(),
                        "this zero idiom breaks the loop-carried "
                        "dependency chain; the spec measures "
                        "throughput, not latency");
            } else {
                addDiag(rep, "R3", Severity::Error, Segment::Body,
                        -1, "",
                        "no loop-carried dependency chain threads "
                        "the body back to itself; latency-style "
                        "measurement needs one");
            }
        } else if (ctx.chain == Context::Chain::Auto && !chain_real &&
                   chain_if_idioms_read && idiom_count == 1) {
            addDiag(rep, "R3", Severity::Warning, Segment::Body,
                    first_idiom,
                    body_prog.insn(static_cast<std::size_t>(first_idiom))
                        .toString(),
                    "this zero idiom breaks the only loop-carried "
                    "dependency chain in the body; if a latency "
                    "measurement was intended, the result is "
                    "throughput-bound");
        }
    }

    // R4: dead measured code -- a pure register result overwritten
    // later in the static body pattern before any read. Overwrite by
    // the *next unroll copy* of the same instruction is throughput
    // idiom, not deadness, so the scan does not wrap around.
    for (std::size_t i = 0; i < body_prog.entryCount(); ++i) {
        const sim::EntryPlan &p = body_prog.plan(i);
        const Instruction &insn = body_prog.insn(i);
        namespace pf = sim::planflag;
        if ((p.flags & (pf::kHasLoad | pf::kStoreUops | pf::kIsBranch |
                        pf::kZeroIdiom | pf::kPrivileged)) ||
            writesFlags(p) || usedSlots(p.dst).size() != 1 ||
            deadRuleExemptClass(insn.info().cls))
            continue;
        if (insn.operands.empty() ||
            insn.operands[0].kind != x86::OperandKind::Register ||
            slotOf(insn.operands[0].reg) != p.dst[0] ||
            insn.operands[0].widthBits < 32)
            continue;
        Reg dst = insn.operands[0].reg;
        Mask db = regBit(dst);
        for (std::size_t j = i + 1; j < body_prog.entryCount(); ++j) {
            if (body_uses[j] & db)
                break; // live
            if (body_defs[j] & db) {
                if (defWidth(body_prog, j, dst) >= 32) {
                    addDiag(rep, "R4", Severity::Warning,
                            Segment::Body,
                            static_cast<std::int32_t>(i),
                            insn.toString(),
                            "result in " + x86::regName(dst) +
                                " is overwritten by body "
                                "instruction " +
                                std::to_string(j) +
                                " without being read: dead measured "
                                "code");
                }
                break; // killed (or partially merged: treat as live)
            }
        }
    }

    // R7: model consistency -- the declared measurement intent vs the
    // bottleneck the static performance model predicts for the body
    // (analysis/bound.hh; the uops.info latency/throughput split).
    if (ctx.intent != Context::Intent::None &&
        body_prog.entryCount() > 0) {
        BoundReport bound = analyzeBounds(ua, body_prog);
        std::string bounds_txt =
            "latency " + core::shortDouble(bound.latencyBound) +
            " vs ports " + core::shortDouble(bound.portBound) +
            " vs front-end " + core::shortDouble(bound.frontEndBound) +
            " cycles/copy";
        if (ctx.intent == Context::Intent::Latency &&
            bound.bottleneck != Bottleneck::Latency) {
            // An architectural chain that carries no guaranteed
            // timing edge (LEA and pure-store address operands: the
            // scheduler reads address registers without stalling on
            // them) is a property of the instruction, not a planner
            // mistake -- informational, like the ADC/SBB flags
            // serialization below. No chain at all is an error.
            if (chain_real) {
                addDiag(rep, "R7", Severity::Info, Segment::Body, -1,
                        "",
                        "declared a latency measurement, but the "
                        "dependency chain is address-carried and the "
                        "scheduler does not serialize address-"
                        "register reads of non-load uops (" +
                            bounds_txt +
                            "); expect the measurement to "
                            "underestimate the architectural "
                            "latency");
            } else {
                addDiag(rep, "R7", Severity::Error, Segment::Body, -1,
                        "",
                        "declared a latency measurement, but the "
                        "model predicts a " +
                            std::string(
                                bottleneckName(bound.bottleneck)) +
                            "-bound body (" + bounds_txt +
                            "); the dependency chain does not bind "
                            "the measured cycles");
            }
        } else if (ctx.intent == Context::Intent::Throughput &&
                   bound.bottleneck == Bottleneck::Latency) {
            std::int32_t idx = bound.criticalPath.empty()
                                   ? -1
                                   : bound.criticalPath[0].index;
            std::string insn =
                bound.criticalPath.empty()
                    ? std::string()
                    : bound.criticalPath[0].insn;
            addDiag(rep, "R7", Severity::Info, Segment::Body, idx,
                    std::move(insn),
                    "declared a throughput measurement, but the "
                    "model predicts the loop-carried dependency "
                    "chain binds (" +
                        bounds_txt +
                        "); expect chain-serialized results");
        }
    }

    std::stable_sort(rep.diagnostics.begin(), rep.diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return a.rule < b.rule;
                     });
    return rep;
}

namespace
{

/** Whole-report memo keyed on (uarch, context, canonical spec key):
 *  campaign executors lint each unique spec once per process. */
Memo<Report> &
lintMemo()
{
    static Memo<Report> memo;
    return memo;
}

std::string
lintCacheKey(const uarch::MicroArch &ua,
             const core::BenchmarkSpec &spec, const Context &ctx)
{
    std::string key = ua.name;
    key += '\0';
    key += core::modeName(ctx.mode);
    key += '\0';
    key += std::to_string(ctx.r14Base);
    key += ',';
    key += std::to_string(ctx.r14Size);
    key += ',';
    key += std::to_string(ctx.resultBase);
    key += ',';
    key += std::to_string(ctx.resultSize);
    key += ',';
    key += std::to_string(static_cast<unsigned>(ctx.chain));
    key += ',';
    key += std::to_string(static_cast<unsigned>(ctx.intent));
    key += '\0';
    key += core::specCanonicalKey(spec);
    return key;
}

} // namespace

Report
analyzeSpecCached(const uarch::MicroArch &ua,
                  const core::BenchmarkSpec &spec, const Context &ctx)
{
    return *lintMemo().get(lintCacheKey(ua, spec, ctx),
                           [&] { return analyzeSpec(ua, spec, ctx); });
}

CacheStats
lintCacheCounters()
{
    return lintMemo().stats();
}

} // namespace nb::analysis
