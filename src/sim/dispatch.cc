/**
 * @file
 * The primary execution path: a threaded (computed-goto) interpreter
 * over the Program's per-entry plans (EntryPlan, program.hh).
 *
 * Each entry's plan holds everything this loop reads about it in one
 * fixed-size record: readiness slots inline (the flags as one more
 * slot, zero idioms already without sources), core-µop port masks,
 * latency, the predecoded operands with their width and sign masks,
 * and a PlanShape that says how much of the shared work the entry
 * needs:
 *
 *  - Simple (one issue slot, one core µop, no memory, no branch, not
 *    privileged -- most of a microbenchmark body) runs readiness ->
 *    issue_slot -> dispatch_uop as a straight line, and its handler
 *    retires it without the store/branch epilogue;
 *  - General runs the shared prologue (privilege check, readiness,
 *    issue slots, the load µop, the core µops) and the full epilogue;
 *  - Serial (kPrologueFreeClasses in program.hh: the fences and
 *    markers, and Unhandled) goes straight to its handler, which
 *    issues and retires itself. tools/check_dispatch_lockstep.py
 *    checks that list against the "fences and markers" section below.
 *
 * Control flow dispatches on the plan's OpClass through a label table.
 * The source Instructions are never touched on this path (only the
 * cold privilege fault and the Unhandled panic name the instruction). The small helper lambdas are forced inline, so the
 * loop compiles as one function.
 *
 * PMU accounting: the µop events (UopsIssued, UopsExecuted,
 * UopsPort<N>) are not counted per µop but tallied (Machine::UopTally:
 * issue slots plus the Scheduler's per-port use counts) and folded
 * into the batched pending counts and the ExecObserver at every PMU
 * sync point -- the PFC markers, WRMSR, the budget checkpoint and the
 * exit of execute(). While such an event is selected on a
 * programmable counter (time-resolved), each of its µops also appends
 * its cycle to the PMU's issue or port stream (Pmu::appendIssue,
 * Pmu::appendDispatch); retirements always append to the retire
 * stream. Other events that are not time-resolved are batched by
 * Machine::countBatched() (see BatchCountScope) and committed in bulk
 * on return.
 *
 * Parity contract: every observable -- ExecStats, architectural
 * registers and flags, counter totals, time-resolved samples, the RNG
 * stream, branch-predictor state -- must be bit-identical to
 * Machine::executeReference() (machine.cc + exec.cc). The semantics
 * bodies below mirror the executeInstr switch case for case; keep the
 * two in lockstep and extend the parity suite when adding opcodes.
 */

#include <bit>
#include <optional>
#include <sstream>

#include "common/bits.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "sim/machine.hh"
#include "sim/semantics.hh"
#include "uarch/timing.hh"

namespace nb::sim
{

using x86::Instruction;
using x86::Opcode;
using x86::OperandKind;
using x86::Reg;

void
Machine::budgetCheckpoint(ExecContext &ctx)
{
    const Cycles consumed = sched_.maxCompletion - ctx.stats.startCycle;
    fault::maybeInject(fault::Site::Execute, consumed);
    if (cycleDeadline_ == 0 || sched_.maxCompletion < cycleDeadline_)
        return;
    // Commit the tallied and batched PMU state so the error carries an
    // accurate partial snapshot (both steps are idempotent: the
    // BatchCountScope's fold and flush during unwind find nothing).
    foldUopTally();
    flushPendingCounts();
    std::ostringstream os;
    os << "cycle budget exceeded (" << cycleBudget_ << " cycles): "
       << ctx.stats.instructions << " instructions retired, "
       << consumed << " cycles consumed in this call";
    if (pmu_.hasFixed()) {
        const Cycles now = sched_.maxCompletion;
        os << "; partial PMU fixed counters: instructions="
           << pmu_.readFixed(0, now)
           << ", core_cycles=" << pmu_.readFixed(1, now)
           << ", ref_cycles=" << pmu_.readFixed(2, now);
    }
    const std::string msg = os.str();
    detail::emitMessage("fatal: ", msg);
    throw BudgetExceededError(msg, ctx.stats.instructions, consumed,
                              cycleBudget_);
}

ExecStats
Machine::execute(const Program &prog)
{
    // Batch non-time-resolved PMU accounting for the whole call and
    // keep the µop tally (see UopTally); the scope folds and flushes on
    // every exit path, including fatal()/exceptions.
    BatchCountScope batch_scope(*this);

    ExecContext ctx;
    ctx.program = &prog;
    ctx.stats.startCycle = sched_.maxCompletion;

    // Opt-in observation sink (see ExecObserver): accrual is purely
    // additive bookkeeping on already-computed values, so attaching an
    // observer cannot perturb timing, semantics, or PMU state. Its µop
    // counts arrive with the tally; only retire stalls accrue here.
    ExecObserver *const obs = execObserver_;

    // Front-end footprint model (§III-F): code that no longer fits the
    // instruction cache decodes at a reduced rate. The footprint is
    // the *dynamic* layout's size -- repeat-encoded programs occupy
    // the same i-cache space as their materialized equivalent.
    std::uint64_t footprint = prog.virtualSize() * 4; // 4 bytes/insn
    ctx.effectiveIssueWidth = uarch_.issueWidth;
    if (footprint > 256 * 1024)
        ctx.effectiveIssueWidth = std::max(1u, uarch_.issueWidth / 4);
    else if (footprint > 32 * 1024)
        ctx.effectiveIssueWidth = std::max(2u, uarch_.issueWidth / 2);
    const unsigned issue_width = ctx.effectiveIssueWidth;

    const EntryPlan *const plans = prog.plans();
    const Instruction *const insn_arr = prog.insnArray();

    // Cursor over the virtual index space: the current block, the
    // copy of its pattern, and the entry within it. Sequential advance
    // bumps `pe` and, at the end of a copy, moves to the next copy or
    // block; a taken branch relocates by scanning the block list
    // (blocks are contiguous in virtual space and few). The virtual
    // index of `pe` is copy_base + (pe - copy_begin). The current
    // block's pattern length and the copies left after the current one
    // are kept in locals: a one-entry pattern ends a copy at every
    // instruction.
    const std::vector<Program::Block> &blocks = prog.blocks();
    const std::size_t n_blocks = blocks.size();
    const std::uint64_t vsize = prog.virtualSize();
    std::size_t block_idx = 0;
    std::uint64_t copies_left = 0;
    std::uint32_t copy_len = 0;
    std::uint64_t copy_base = 0;
    const EntryPlan *copy_begin = nullptr;
    const EntryPlan *copy_end = nullptr;
    const EntryPlan *pe = nullptr;

    // Relocate to virtual index @p v; past the end, the next advance
    // finishes the call.
    auto relocate = [&](std::uint64_t v) {
        for (block_idx = 0; block_idx < n_blocks; ++block_idx) {
            const Program::Block &b = blocks[block_idx];
            std::uint64_t span =
                static_cast<std::uint64_t>(b.entryCount) * b.repeat;
            if (v < b.firstVirtual + span) {
                std::uint64_t rel = v - b.firstVirtual;
                std::uint64_t iter = rel / b.entryCount;
                copies_left = b.repeat - 1 - iter;
                copy_len = b.entryCount;
                copy_base = b.firstVirtual + iter * b.entryCount;
                copy_begin = plans + b.entryBegin;
                copy_end = copy_begin + b.entryCount;
                pe = copy_begin + rel % b.entryCount;
                return;
            }
        }
        // block_idx == n_blocks: the next advance finishes.
        copies_left = 0;
        copy_end = pe;
    };
    relocate(0);

    // The instruction budget and the amortized resilience checkpoint
    // (cycle budget + execute-site fault injection) share one compare
    // per instruction against `next_check`: the budget, or the next
    // multiple of 1024 instructions while a deadline or a fault plan
    // is armed (both are set before a call, never during one). The
    // cold path lives out of line.
    const bool checkpoints =
        cycleDeadline_ != 0 || fault::activePlan() != nullptr;
    std::uint64_t next_check = checkpoints ? 0 : maxInstr_;

    // ---------------------------------------------------------------
    // Per-instruction state. Everything lives before the first label
    // and is *assigned* per instruction, so the computed gotos below
    // never jump into the scope of a fresh initialization (which C++
    // forbids). `loaded`/`loaded_vec` are only read by handlers whose
    // entry has a load µop, which set them this instruction; the store
    // values are reset by the prologue of entries with store µops, the
    // only ones whose epilogue reads them.
    // ---------------------------------------------------------------
    Cycles src_ready = 0;
    Cycles addr_ready = 0;
    Cycles issue_ready = 0;
    Cycles load_done = 0;
    Cycles core_done = 0;
    Cycles first_dispatch = 0;
    Cycles result_ready = 0;
    std::uint64_t loaded = 0;
    VecReg loaded_vec{};
    Addr mem_vaddr = 0;
    bool taken = false;
    std::uint64_t branch_target = 0;
    std::optional<std::uint64_t> store_value;
    std::optional<VecReg> store_vec;

    // Scheduler primitives, inlined from machine.cc so the whole
    // dispatch loop optimizes as one unit. Their timing is that of
    // Machine::issueSlot / dispatchUop / retireInstr -- keep them in
    // lockstep; the PMU side differs only in bookkeeping: µop events
    // go to the tally (uopTally_), and only logged ones are counted
    // per µop.
    const unsigned window_size = uarch_.windowSize;
    const unsigned retire_width = uarch_.retireWidth;
    const unsigned n_ports = ports_.numPorts;
    const uarch::PortMask port_limit =
        static_cast<uarch::PortMask>((1u << n_ports) - 1);

    auto issue_slot = [&]() NB_ALWAYS_INLINE -> Cycles {
        // Scheduler-window back-pressure: stall issue until the
        // oldest in-flight µop completes.
        if (sched_.window.size() >= window_size) {
            Cycles oldest = sched_.window.front();
            sched_.window.pop_front();
            if (oldest > sched_.issueCycle) {
                sched_.issueCycle = oldest;
                sched_.issuedInCycle = 0;
            }
        }
        if (sched_.issuedInCycle >= issue_width) {
            ++sched_.issueCycle;
            sched_.issuedInCycle = 0;
        }
        ++sched_.issuedInCycle;
        ++uopTally_.issued;
        if (uopLog_.issue)
            pmu_.appendIssue(sched_.issueCycle);
        return sched_.issueCycle;
    };

    auto dispatch_uop = [&](uarch::PortMask ports, Cycles ready,
                            unsigned latency, unsigned block_cycles)
        NB_ALWAYS_INLINE -> UopTiming {
        ready = std::max(ready, sched_.minDispatch);
        if (ports == 0) {
            // µop that occupies no execution port (e.g. eliminated or
            // fence-internal); completes at readiness.
            Cycles done = ready + latency;
            sched_.maxCompletion = std::max(sched_.maxCompletion, done);
            sched_.window.push_back(done);
            ++uopTally_.unported;
            return {ready, done};
        }
        // Choose the allowed port with the earliest dispatch
        // opportunity; break ties towards the least-used port.
        // Iterating set bits visits ports in ascending index order --
        // the same pick order as the reference's 0..numPorts scan.
        unsigned best_port = 0;
        Cycles best_cycle = ~Cycles{0};
        std::uint64_t best_use = 0;
        for (unsigned m = ports & port_limit; m != 0; m &= m - 1) {
            unsigned p = static_cast<unsigned>(std::countr_zero(m));
            Cycles c = std::max(ready, sched_.portFree[p]);
            std::uint64_t use = sched_.portUse[p];
            if (c < best_cycle || (c == best_cycle && use < best_use)) {
                best_cycle = c;
                best_port = p;
                best_use = use;
            }
        }
        NB_ASSERT(best_cycle != ~Cycles{0}, "empty port mask");

        sched_.portUse[best_port] = best_use + 1;
        sched_.portFree[best_port] = best_cycle + 1 + block_cycles;
        Cycles done = best_cycle + std::max(1u, latency);
        sched_.maxCompletion = std::max(sched_.maxCompletion, done);
        sched_.window.push_back(done);
        if (uopLog_.ports >> best_port & 1)
            pmu_.appendDispatch(best_port, best_cycle);
        return {best_cycle, done};
    };

    auto retire_insn = [&](Cycles completion, bool is_br,
                           bool mispred) NB_ALWAYS_INLINE {
        Cycles retire = std::max(completion, sched_.lastRetire);
        if (retire == sched_.lastRetire &&
            sched_.retiredInCycle >= retire_width) {
            ++retire;
        }
        if (retire != sched_.lastRetire)
            sched_.retiredInCycle = 0;
        ++sched_.retiredInCycle;
        sched_.lastRetire = retire;
        sched_.maxCompletion = std::max(sched_.maxCompletion, retire);
        if (obs)
            obs->retireStallCycles += retire - completion;

        // InstrRetired backs fixed counter 0: always streamed.
        pmu_.countRetire(retire);
        if (is_br) {
            countBatched(EventId::BrInstRetired, 1, retire);
            if (mispred)
                countBatched(EventId::BrMispRetired, 1, retire);
        }
    };

    // Out-of-line entries for the rare handlers (RET, POP, PREFETCH,
    // the fences and markers), so that only the prologue, the epilogue
    // and CPUID's µop loop carry inline copies and the loop stays
    // compact.
    auto dispatch_uop_cold = [&](uarch::PortMask ports, Cycles ready)
        NB_NOINLINE { return dispatch_uop(ports, ready, 1, 0); };
    auto retire_insn_cold = [&](Cycles completion) NB_NOINLINE {
        retire_insn(completion, false, false);
    };

    // Readiness of the running entry's sources (unused slots are
    // kIdleSlot, which reads 0).
    auto source_ready = [&]() NB_ALWAYS_INLINE -> Cycles {
        return std::max(std::max(sched_.regReady[pe->src[0]],
                                 sched_.regReady[pe->src[1]]),
                        std::max(sched_.regReady[pe->src[2]],
                                 sched_.regReady[pe->src[3]]));
    };
    // Virtual index of the running entry.
    auto current_index = [&]() NB_ALWAYS_INLINE -> std::uint64_t {
        return copy_base + static_cast<std::uint64_t>(pe - copy_begin);
    };
    // Pattern-relative branch targets resolve against the current
    // copy's virtual base (see program.hh).
    auto resolve_target = [&]() NB_ALWAYS_INLINE -> std::uint64_t {
        std::uint64_t t = static_cast<std::uint64_t>(pe->target);
        return pe->flags & planflag::kTargetAbsolute ? t : copy_base + t;
    };

    // Operand access through the plan. Decode gives Register operands
    // of the scalar handlers GPR indices and those of the vector
    // handlers vector indices (anything else is kind None, which
    // panics here as the reference's accessors do).
    auto read_src = [&](const PlanOperand &op)
        NB_ALWAYS_INLINE -> std::uint64_t {
        if (op.kind == OperandKind::Register)
            return arch_.gpr[op.reg] & op.mask;
        if (op.kind == OperandKind::Immediate)
            return op.aux;
        if (op.kind == OperandKind::Memory)
            return loaded & op.mask;
        panic("unreadable operand");
    };
    auto read_vec_src = [&](const PlanOperand &op)
        NB_ALWAYS_INLINE -> VecReg {
        if (op.kind == OperandKind::Register)
            return arch_.readVec(static_cast<Reg>(op.reg));
        if (op.kind == OperandKind::Memory)
            return loaded_vec;
        panic("unreadable vector operand");
    };
    // A GPR write at the operand's width: 32/64-bit forms replace the
    // register (zero-extending), 8/16-bit forms merge (op.aux).
    auto write_gpr = [&](const PlanOperand &op,
                         std::uint64_t value) NB_ALWAYS_INLINE {
        std::uint64_t &slot = arch_.gpr[op.reg];
        slot = (slot & op.aux) | (value & op.mask);
        sched_.regReady[op.reg] = result_ready;
    };
    auto write_dst = [&](std::uint64_t value) NB_ALWAYS_INLINE {
        const PlanOperand &dst = pe->ops[0];
        if (dst.kind == OperandKind::Register)
            write_gpr(dst, value);
        else if (dst.kind == OperandKind::Memory)
            store_value = value;
        else
            panic("bad destination operand");
    };
    auto write_vec_dst = [&](const VecReg &value) NB_ALWAYS_INLINE {
        const PlanOperand &dst = pe->ops[0];
        if (dst.kind == OperandKind::Register) {
            arch_.writeVec(static_cast<Reg>(dst.reg), value);
            sched_.regReady[dst.reg] = result_ready;
        } else if (dst.kind == OperandKind::Memory) {
            store_vec = value;
        } else {
            panic("bad vector destination");
        }
    };
    auto set_zf_sf = [&](std::uint64_t result) NB_ALWAYS_INLINE {
        arch_.zf = (result & pe->mask) == 0;
        arch_.sf = (result & pe->sign) != 0;
    };
    auto flags_written = [&]() NB_ALWAYS_INLINE {
        sched_.regReady[kFlagsSlot] = result_ready;
    };
    auto write_fixed = [&](Reg r, std::uint64_t value) NB_ALWAYS_INLINE {
        arch_.writeGpr(r, 64, value);
        sched_.regReady[static_cast<unsigned>(r)] = result_ready;
    };

    // One label per OpClass, in enum order.
    static const void *const handlers[] = {
        &&op_nop,        &&op_mov,        &&op_movsx,
        &&op_lea,        &&op_xchg,       &&op_bswap,
        &&op_cmov,       &&op_add_adc,    &&op_sub_sbb_cmp,
        &&op_logic,      &&op_inc_dec,    &&op_neg,
        &&op_not,        &&op_imul,       &&op_mul,
        &&op_div,        &&op_shift,      &&op_popcnt,
        &&op_lzcnt,      &&op_tzcnt,      &&op_bitscan,
        &&op_bit_test,   &&op_setz,       &&op_setnz,
        &&op_jmp,        &&op_jcc,        &&op_call,
        &&op_ret,        &&op_push,       &&op_pop,
        &&op_mov_vec,    &&op_pxor,       &&op_paddd,
        &&op_addps,      &&op_mulps,      &&op_divps,
        &&op_addpd,      &&op_mulpd,      &&op_divpd,
        &&op_vaddps,     &&op_vmulps,     &&op_vfma,
        &&op_rdtsc,      &&op_rdpmc,      &&op_rdmsr,
        &&op_wrmsr,      &&op_wbinvd,     &&op_clflush,
        &&op_prefetch,   &&op_cli,        &&op_sti,
        &&op_pfc_marker, &&op_fence,      &&op_sfence,
        &&op_cpuid,      &&op_unhandled,
    };
    static_assert(sizeof(handlers) / sizeof(handlers[0]) ==
                  kNumOpClasses);

next_insn:
    if (pe == copy_end) {
        // End of a pattern copy: the next copy, the next block, or
        // the end of the program.
        if (copies_left != 0) {
            --copies_left;
            copy_base += copy_len;
        } else {
            if (++block_idx >= n_blocks)
                goto finished;
            const Program::Block &nb = blocks[block_idx];
            copies_left = nb.repeat - 1;
            copy_len = nb.entryCount;
            copy_base = nb.firstVirtual;
            copy_begin = plans + nb.entryBegin;
            copy_end = copy_begin + nb.entryCount;
        }
        pe = copy_begin;
    }
    if (ctx.stats.instructions >= next_check) {
        if (ctx.stats.instructions >= maxInstr_) {
            fatal("instruction budget exceeded (", maxInstr_,
                  "); possible endless loop in microbenchmark");
        }
        budgetCheckpoint(ctx);
        next_check = std::min(maxInstr_, ctx.stats.instructions + 1024);
    }

    if (pe->shape == PlanShape::Simple) {
        // One issue slot, one core µop, no memory, no branch.
        Cycles ready = std::max(source_ready(), issue_slot());
        ++ctx.stats.uops;
        auto t = dispatch_uop(pe->core[0], ready, pe->latency,
                              pe->blockCycles);
        first_dispatch = t.dispatch;
        core_done = t.done;
        result_ready = t.done;
    } else if (pe->shape == PlanShape::General) {
        // The shared prologue: source/address readiness, issue slots,
        // the load µop, and the core µops -- everything executeInstr
        // does between the fence special cases and the semantics
        // switch.
        const unsigned flags = pe->flags;
        if (flags & planflag::kPrivileged)
            requirePrivilege(insn_arr[pe - plans]);
        src_ready = source_ready();
        addr_ready = std::max({sched_.regReady[pe->addr[0]],
                               sched_.regReady[pe->addr[1]],
                               sched_.regReady[pe->addr[2]]});

        issue_ready = 0;
        for (unsigned i = 0; i < pe->nIssue; ++i)
            issue_ready = std::max(issue_ready, issue_slot());
        ctx.stats.uops += pe->nIssue;

        load_done = 0;
        if (flags & planflag::kHasMem)
            mem_vaddr = effectiveAddress(pe->mem);
        if (flags & planflag::kDoStoreUop) {
            store_value.reset();
            store_vec.reset();
        }
        if (flags & planflag::kDoLoadUop) {
            Cycles ready = std::max(addr_ready, issue_ready);
            auto lt = dispatch_uop(ports_.loadPorts, ready, 1, 0);
            Cycles lat;
            if (pe->memWidth > 64) {
                loaded_vec = loadVec(mem_vaddr, pe->memWidth / 8, &lat);
            } else {
                auto [value, l] = loadValue(mem_vaddr, pe->memWidth / 8);
                loaded = value;
                lat = l;
            }
            load_done = lt.dispatch + lat;
            sched_.maxCompletion =
                std::max(sched_.maxCompletion, load_done);
        }

        Cycles core_ready = std::max({src_ready, issue_ready, load_done});
        core_done = core_ready;
        first_dispatch = core_ready;
        if (pe->nCore != 0) {
            // The first core µop carries the latency and the port
            // blocking; every µop completes after core_ready.
            auto t = dispatch_uop(pe->core[0], core_ready, pe->latency,
                                  pe->blockCycles);
            core_done = t.done;
            first_dispatch = t.dispatch;
            for (unsigned i = 1; i < pe->nCore; ++i) {
                auto ti = dispatch_uop(pe->core[i], core_ready, 1, 0);
                core_done = std::max(core_done, ti.done);
            }
        } else if (flags & planflag::kHasLoad) {
            core_done = load_done;
        } else {
            // NOP-like: completes at issue.
            core_done = issue_ready;
            sched_.maxCompletion =
                std::max(sched_.maxCompletion, core_done);
            sched_.window.push_back(core_done);
        }
        result_ready = core_done;
    } else if (pe->flags & planflag::kPrivileged) {
        requirePrivilege(insn_arr[pe - plans]);
    }
    goto *handlers[static_cast<unsigned>(pe->cls)];

    // ----------------------------------------------------------- ALU
op_nop:
    goto epilogue;

op_mov:
    write_dst(read_src(pe->ops[1]));
    goto epilogue;

op_movsx:
    {
        const PlanOperand &src = pe->ops[1];
        std::uint64_t v = read_src(src);
        if (v & signBit(src.width))
            v |= ~src.mask;
        write_dst(v);
    }
    goto epilogue;

op_lea:
    write_dst(mem_vaddr & pe->mask);
    goto epilogue;

op_xchg:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        std::uint64_t b = read_src(pe->ops[1]);
        write_dst(b);
        const PlanOperand &src = pe->ops[1];
        if (src.kind == OperandKind::Register)
            write_gpr(src, a);
        else
            store_value = a;
    }
    goto epilogue;

op_bswap:
    {
        std::uint64_t v = read_src(pe->ops[0]);
        if (pe->opWidth == 64)
            v = __builtin_bswap64(v);
        else
            v = __builtin_bswap32(static_cast<std::uint32_t>(v));
        write_dst(v);
    }
    goto epilogue;

op_cmov:
    {
        bool cond = pe->opcode == Opcode::CMOVZ    ? arch_.zf
                    : pe->opcode == Opcode::CMOVNZ ? !arch_.zf
                    : pe->opcode == Opcode::CMOVC  ? arch_.cf
                                                   : !arch_.cf;
        std::uint64_t v = cond ? read_src(pe->ops[1])
                               : read_src(pe->ops[0]);
        write_dst(v);
    }
    goto epilogue;

op_add_adc:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        std::uint64_t b = read_src(pe->ops[1]);
        std::uint64_t carry =
            pe->opcode == Opcode::ADC && arch_.cf ? 1 : 0;
        std::uint64_t r = (a + b + carry) & pe->mask;
        arch_.cf = r < a || (carry && r == a);
        arch_.of = ((a ^ r) & (b ^ r) & pe->sign) != 0;
        set_zf_sf(r);
        flags_written();
        write_dst(r);
    }
    goto epilogue;

op_sub_sbb_cmp:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        std::uint64_t b = read_src(pe->ops[1]);
        std::uint64_t borrow =
            pe->opcode == Opcode::SBB && arch_.cf ? 1 : 0;
        std::uint64_t r = (a - b - borrow) & pe->mask;
        arch_.cf = a < b + borrow;
        arch_.of = ((a ^ b) & (a ^ r) & pe->sign) != 0;
        set_zf_sf(r);
        flags_written();
        if (pe->opcode != Opcode::CMP)
            write_dst(r);
    }
    goto epilogue;

op_logic:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        std::uint64_t b = read_src(pe->ops[1]);
        std::uint64_t r;
        if (pe->opcode == Opcode::OR)
            r = a | b;
        else if (pe->opcode == Opcode::XOR)
            r = a ^ b;
        else
            r = a & b;
        r &= pe->mask;
        arch_.cf = false;
        arch_.of = false;
        set_zf_sf(r);
        flags_written();
        if (pe->opcode != Opcode::TEST)
            write_dst(r);
    }
    goto epilogue;

op_inc_dec:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        std::uint64_t r =
            (pe->opcode == Opcode::INC ? a + 1 : a - 1) & pe->mask;
        // INC/DEC preserve CF.
        arch_.of = pe->opcode == Opcode::INC ? r == pe->sign
                                             : a == pe->sign;
        set_zf_sf(r);
        flags_written();
        write_dst(r);
    }
    goto epilogue;

op_neg:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        std::uint64_t r = (0 - a) & pe->mask;
        arch_.cf = a != 0;
        set_zf_sf(r);
        flags_written();
        write_dst(r);
    }
    goto epilogue;

op_not:
    write_dst(~read_src(pe->ops[0]) & pe->mask);
    goto epilogue;

op_imul:
    {
        if (pe->nOps == 1) {
            // RDX:RAX = RAX * src (signed widening).
            auto a = static_cast<__int128>(
                static_cast<std::int64_t>(arch_.readGpr(Reg::RAX, 64)));
            auto b = static_cast<__int128>(
                static_cast<std::int64_t>(read_src(pe->ops[0])));
            __int128 p = a * b;
            write_fixed(Reg::RAX, static_cast<std::uint64_t>(p));
            write_fixed(Reg::RDX, static_cast<std::uint64_t>(p >> 64));
        } else if (pe->nOps == 2) {
            std::uint64_t r =
                read_src(pe->ops[0]) * read_src(pe->ops[1]);
            write_dst(r & pe->mask);
        } else {
            std::uint64_t r =
                read_src(pe->ops[1]) * read_src(pe->ops[2]);
            write_dst(r & pe->mask);
        }
        flags_written();
    }
    goto epilogue;

op_mul:
    {
        auto a = static_cast<unsigned __int128>(
            arch_.readGpr(Reg::RAX, 64));
        auto b = static_cast<unsigned __int128>(read_src(pe->ops[0]));
        unsigned __int128 p = a * b;
        write_fixed(Reg::RAX, static_cast<std::uint64_t>(p));
        write_fixed(Reg::RDX, static_cast<std::uint64_t>(p >> 64));
        flags_written();
    }
    goto epilogue;

op_div:
    {
        std::uint64_t divisor = read_src(pe->ops[0]);
        if (divisor == 0)
            fatal("divide error (#DE): division by zero");
        unsigned __int128 dividend =
            (static_cast<unsigned __int128>(
                 arch_.readGpr(Reg::RDX, 64))
             << 64) |
            arch_.readGpr(Reg::RAX, 64);
        std::uint64_t q, rem;
        if (pe->opcode == Opcode::DIV) {
            q = static_cast<std::uint64_t>(dividend / divisor);
            rem = static_cast<std::uint64_t>(dividend % divisor);
        } else {
            auto sd = static_cast<__int128>(dividend);
            auto sv = static_cast<std::int64_t>(divisor);
            q = static_cast<std::uint64_t>(sd / sv);
            rem = static_cast<std::uint64_t>(sd % sv);
        }
        write_fixed(Reg::RAX, q);
        write_fixed(Reg::RDX, rem);
        flags_written();
    }
    goto epilogue;

op_shift:
    {
        const unsigned op_width = pe->opWidth;
        std::uint64_t a = read_src(pe->ops[0]);
        unsigned max_shift = op_width == 64 ? 63 : 31;
        unsigned n =
            static_cast<unsigned>(read_src(pe->ops[1])) & max_shift;
        std::uint64_t r = a;
        if (n != 0) {
            switch (pe->opcode) {
              case Opcode::SHL:
                arch_.cf = (a >> (op_width - n)) & 1;
                r = a << n;
                break;
              case Opcode::SHR:
                arch_.cf = (a >> (n - 1)) & 1;
                r = a >> n;
                break;
              case Opcode::SAR: {
                std::uint64_t s = a;
                if (a & pe->sign)
                    s |= ~pe->mask;
                arch_.cf = (s >> (n - 1)) & 1;
                r = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(s) >> n);
                break;
              }
              case Opcode::ROL:
                r = (a << n) | (a >> (op_width - n));
                break;
              case Opcode::ROR:
                r = (a >> n) | (a << (op_width - n));
                break;
              default:
                break;
            }
            r &= pe->mask;
            set_zf_sf(r);
            flags_written();
        }
        write_dst(r);
    }
    goto epilogue;

op_popcnt:
    {
        std::uint64_t v = read_src(pe->ops[1]);
        write_dst(static_cast<std::uint64_t>(std::popcount(v)));
        arch_.zf = v == 0;
        flags_written();
    }
    goto epilogue;

op_lzcnt:
    {
        const unsigned op_width = pe->opWidth;
        std::uint64_t v = read_src(pe->ops[1]);
        unsigned lz =
            v == 0 ? op_width
                   : static_cast<unsigned>(std::countl_zero(v)) -
                         (64 - op_width);
        write_dst(lz);
        arch_.cf = v == 0;
        flags_written();
    }
    goto epilogue;

op_tzcnt:
    {
        std::uint64_t v = read_src(pe->ops[1]);
        unsigned tz = v == 0
                          ? pe->opWidth
                          : static_cast<unsigned>(std::countr_zero(v));
        write_dst(tz);
        arch_.cf = v == 0;
        flags_written();
    }
    goto epilogue;

op_bitscan:
    {
        std::uint64_t v = read_src(pe->ops[1]);
        arch_.zf = v == 0;
        flags_written();
        if (v != 0) {
            unsigned pos =
                pe->opcode == Opcode::BSF
                    ? static_cast<unsigned>(std::countr_zero(v))
                    : 63 - static_cast<unsigned>(std::countl_zero(v));
            write_dst(pos);
        }
    }
    goto epilogue;

op_bit_test:
    {
        std::uint64_t a = read_src(pe->ops[0]);
        unsigned pos =
            static_cast<unsigned>(read_src(pe->ops[1])) % pe->opWidth;
        arch_.cf = (a >> pos) & 1;
        flags_written();
        if (pe->opcode == Opcode::BTS)
            write_dst(a | (1ULL << pos));
        else if (pe->opcode == Opcode::BTR)
            write_dst(a & ~(1ULL << pos));
    }
    goto epilogue;

op_setz:
    write_dst(arch_.zf ? 1 : 0);
    goto epilogue;

op_setnz:
    write_dst(arch_.zf ? 0 : 1);
    goto epilogue;

    // ------------------------------------------------- control flow
op_jmp:
    taken = true;
    branch_target = resolve_target();
    goto epilogue;

op_jcc:
    {
        switch (pe->opcode) {
          case Opcode::JZ:
            taken = arch_.zf;
            break;
          case Opcode::JNZ:
            taken = !arch_.zf;
            break;
          case Opcode::JC:
            taken = arch_.cf;
            break;
          case Opcode::JNC:
            taken = !arch_.cf;
            break;
          case Opcode::JL:
            taken = arch_.sf != arch_.of;
            break;
          case Opcode::JGE:
            taken = arch_.sf == arch_.of;
            break;
          case Opcode::JLE:
            taken = arch_.zf || arch_.sf != arch_.of;
            break;
          case Opcode::JG:
            taken = !arch_.zf && arch_.sf == arch_.of;
            break;
          default:
            taken = false;
            break;
        }
        if (taken)
            branch_target = resolve_target();
    }
    goto epilogue;

op_call:
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, current_index() + 1, 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        taken = true;
        branch_target = resolve_target();
    }
    goto epilogue;

op_ret:
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        dispatch_uop_cold(ports_.loadPorts,
                          std::max(addr_ready, issue_ready));
        auto [value, lat] = loadValue(rsp, 8);
        (void)lat;
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
        taken = true;
        if (value > vsize)
            fatal("RET to invalid target ", value);
        branch_target = value;
    }
    goto epilogue;

op_push:
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64) - 8;
        arch_.writeGpr(Reg::RSP, 64, rsp);
        storeValue(rsp, read_src(pe->ops[0]), 8);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
    }
    goto epilogue;

op_pop:
    {
        std::uint64_t rsp = arch_.readGpr(Reg::RSP, 64);
        auto pt = dispatch_uop_cold(ports_.loadPorts,
                                   std::max(addr_ready, issue_ready));
        auto [value, lat] = loadValue(rsp, 8);
        arch_.writeGpr(Reg::RSP, 64, rsp + 8);
        result_ready = std::max(result_ready, pt.dispatch + lat);
        write_dst(value);
        sched_.regReady[static_cast<unsigned>(Reg::RSP)] = result_ready;
    }
    goto epilogue;

    // ------------------------------------------------------- vector
op_mov_vec:
    write_vec_dst(read_vec_src(pe->ops[1]));
    goto epilogue;

op_pxor:
    {
        VecReg a = read_vec_src(pe->ops[0]);
        VecReg b = read_vec_src(pe->ops[1]);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i)
            r[i] = a[i] ^ b[i];
        write_vec_dst(r);
    }
    goto epilogue;

op_paddd:
    {
        VecReg a = read_vec_src(pe->ops[0]);
        VecReg b = read_vec_src(pe->ops[1]);
        VecReg r{};
        for (unsigned i = 0; i < 4; ++i) {
            std::uint32_t lo = static_cast<std::uint32_t>(a[i]) +
                               static_cast<std::uint32_t>(b[i]);
            std::uint32_t hi = static_cast<std::uint32_t>(a[i] >> 32) +
                               static_cast<std::uint32_t>(b[i] >> 32);
            r[i] = static_cast<std::uint64_t>(hi) << 32 | lo;
        }
        write_vec_dst(r);
    }
    goto epilogue;

op_addps:
    write_vec_dst(mapPs(read_vec_src(pe->ops[0]),
                        read_vec_src(pe->ops[1]), 128,
                        [](float x, float y) { return asBits(x + y); }));
    goto epilogue;

op_mulps:
    write_vec_dst(mapPs(read_vec_src(pe->ops[0]),
                        read_vec_src(pe->ops[1]), 128,
                        [](float x, float y) { return asBits(x * y); }));
    goto epilogue;

op_divps:
    write_vec_dst(mapPs(read_vec_src(pe->ops[0]),
                        read_vec_src(pe->ops[1]), 128,
                        [](float x, float y) {
                            return asBits(y == 0.0f ? 0.0f : x / y);
                        }));
    goto epilogue;

op_addpd:
    write_vec_dst(mapPd(read_vec_src(pe->ops[0]),
                        read_vec_src(pe->ops[1]), 128,
                        [](double x, double y) { return x + y; }));
    goto epilogue;

op_mulpd:
    write_vec_dst(mapPd(read_vec_src(pe->ops[0]),
                        read_vec_src(pe->ops[1]), 128,
                        [](double x, double y) { return x * y; }));
    goto epilogue;

op_divpd:
    write_vec_dst(mapPd(read_vec_src(pe->ops[0]),
                        read_vec_src(pe->ops[1]), 128,
                        [](double x, double y) {
                            return y == 0.0 ? 0.0 : x / y;
                        }));
    goto epilogue;

op_vaddps:
    write_vec_dst(mapPs(read_vec_src(pe->ops[1]),
                        read_vec_src(pe->ops[2]), 256,
                        [](float x, float y) { return asBits(x + y); }));
    goto epilogue;

op_vmulps:
    write_vec_dst(mapPs(read_vec_src(pe->ops[1]),
                        read_vec_src(pe->ops[2]), 256,
                        [](float x, float y) { return asBits(x * y); }));
    goto epilogue;

op_vfma:
    {
        VecReg acc = read_vec_src(pe->ops[0]);
        VecReg prod = mapPs(read_vec_src(pe->ops[1]),
                            read_vec_src(pe->ops[2]), 256,
                            [](float x, float y) {
                                return asBits(x * y);
                            });
        write_vec_dst(mapPs(acc, prod, 256, [](float x, float y) {
            return asBits(x + y);
        }));
    }
    goto epilogue;

    // ------------------------------------------- counters and system
op_rdtsc:
    {
        std::uint64_t tsc = first_dispatch;
        write_fixed(Reg::RAX, tsc & 0xFFFFFFFF);
        write_fixed(Reg::RDX, tsc >> 32);
    }
    goto epilogue;

op_rdpmc:
    {
        if (privilege_ != Privilege::Kernel && !rdpmcUser_) {
            fatal("general protection fault: RDPMC in user mode with "
                  "CR4.PCE = 0");
        }
        std::uint32_t idx = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value;
        // The counters are sampled at the cycle the µop executes --
        // NOT serialized against older instructions (§IV-A1).
        Cycles sample = first_dispatch;
        if (idx >= kRdpmcFixedBase) {
            if (!pmu_.hasFixed())
                fatal("RDPMC: no fixed counters on ", uarch_.name);
            value = pmu_.readFixed(idx - kRdpmcFixedBase, sample);
        } else {
            if (idx >= pmu_.numProg())
                fatal("RDPMC: counter index ", idx, " out of range");
            value = pmu_.readProg(idx, sample);
        }
        write_fixed(Reg::RAX, value & 0xFFFFFFFF);
        write_fixed(Reg::RDX, value >> 32);
    }
    goto epilogue;

op_rdmsr:
    {
        std::uint32_t addr = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = readMsrAt(addr, first_dispatch);
        write_fixed(Reg::RAX, value & 0xFFFFFFFF);
        write_fixed(Reg::RDX, value >> 32);
    }
    goto epilogue;

op_wrmsr:
    {
        std::uint32_t addr = static_cast<std::uint32_t>(
            arch_.readGpr(Reg::RCX, 32));
        std::uint64_t value = (arch_.readGpr(Reg::RDX, 64) << 32) |
                              arch_.readGpr(Reg::RAX, 32);
        // A PMU sync point: the write may change the logged set.
        foldUopTally();
        writeMsr(addr, value);
        armUopLog();
        // Serializing (§IV-A1).
        sched_.minDispatch = std::max(sched_.minDispatch, core_done);
    }
    goto epilogue;

op_wbinvd:
    caches_.wbinvd();
    sched_.minDispatch = std::max(sched_.minDispatch, core_done);
    goto epilogue;

op_clflush:
    caches_.clflush(memory_.translate(mem_vaddr));
    goto epilogue;

op_prefetch:
    {
        Addr paddr = memory_.translate(mem_vaddr);
        caches_.access(paddr, pe->opcode == Opcode::PREFETCHT0
                                  ? cache::AccessType::PrefetchT0
                                  : cache::AccessType::PrefetchNTA);
        // Occupies a load port but produces no register result.
        dispatch_uop_cold(ports_.loadPorts,
                          std::max(addr_ready, issue_ready));
    }
    goto epilogue;

op_cli:
    interruptsEnabled_ = false;
    goto epilogue;

op_sti:
    interruptsEnabled_ = true;
    scheduleNextInterrupt();
    goto epilogue;

    // --------------------------------- fences and markers (§IV-A1).
    // These mirror executeInstr's early returns: no shared
    // prologue, no store/branch epilogue, no ctx.stats.uops. Their
    // classes, with Unhandled, are kPrologueFreeClasses (the Serial
    // plan shape).
op_pfc_marker:
    // Magic markers: pause/resume counting (§III-I). Acts like a
    // light dispatch fence with a small fixed overhead.
    {
        Cycles fence_point = sched_.maxCompletion + 5;
        sched_.minDispatch = std::max(sched_.minDispatch, fence_point);
        // A PMU sync point: the pause state changes.
        foldUopTally();
        pmu_.setPaused(pe->opcode == Opcode::PFC_PAUSE);
        armUopLog();
        retire_insn_cold(fence_point);
    }
    goto next_entry;

op_fence:
    // LFENCE/MFENCE: dispatches only after all prior instructions
    // completed locally; no later instruction begins execution until
    // it completes.
    {
        Cycles fence_point = sched_.maxCompletion;
        Cycles done = fence_point + 2;
        sched_.minDispatch = std::max(sched_.minDispatch, done);
        issue_slot();
        retire_insn_cold(done);
    }
    goto next_entry;

op_sfence:
    issue_slot();
    retire_insn_cold(sched_.maxCompletion + 1);
    goto next_entry;

op_cpuid:
    // Serializing, but with a variable latency and µop count
    // (Paoloni's observation): unsuitable for short benchmarks.
    {
        Cycles fence_point = sched_.maxCompletion;
        unsigned extra_uops =
            static_cast<unsigned>(rng_.nextRange(16, 48));
        Cycles extra_lat = rng_.nextRange(0, 200);
        Cycles done = fence_point + 100 + extra_lat;
        for (unsigned i = 0; i < extra_uops; ++i) {
            issue_slot();
            dispatch_uop(pe->core[i % pe->nCore], fence_point, 1, 0);
        }
        sched_.minDispatch = std::max(sched_.minDispatch, done);
        sched_.maxCompletion = std::max(sched_.maxCompletion, done);
        // Leaf-dependent model values.
        arch_.writeGpr(Reg::RAX, 64, 0x000506E3); // family/model-ish id
        arch_.writeGpr(Reg::RBX, 64, 0x756E6547);
        arch_.writeGpr(Reg::RCX, 64, 0x6C65746E);
        arch_.writeGpr(Reg::RDX, 64, 0x49656E69);
        for (Reg r : {Reg::RAX, Reg::RBX, Reg::RCX, Reg::RDX})
            sched_.regReady[static_cast<unsigned>(r)] = done;
        retire_insn_cold(done);
    }
    goto next_entry;

op_unhandled:
    panic("unhandled opcode in executor: ",
          insn_arr[pe - plans].info().mnemonic);

    // ---------------------------------------------------------------
    // Epilogue: store µops, branch prediction, retirement. Entries
    // with neither stores nor a branch (every Simple one) retire
    // straight away.
    // ---------------------------------------------------------------
epilogue:
    if (!(pe->flags & (planflag::kStoreUops | planflag::kIsBranch))) {
        retire_insn(result_ready, false, false);
        goto next_entry;
    }
    if (pe->flags & planflag::kStoreUops) {
        // Store-address and store-data µops. PUSH/CALL (no
        // kDoStoreUop) already performed the write; only account the
        // µops.
        const bool do_store = (pe->flags & planflag::kDoStoreUop) != 0;
        Cycles addr_rdy = std::max(addr_ready, issue_ready);
        Cycles data_rdy =
            do_store ? std::max(result_ready, issue_ready) : addr_rdy;
        auto sa = dispatch_uop(ports_.storeAddrPorts, addr_rdy, 1, 0);
        auto sd = dispatch_uop(ports_.storeDataPorts, data_rdy, 1, 0);
        if (do_store) {
            Cycles store_done = std::max(sa.done, sd.done);
            sched_.maxCompletion =
                std::max(sched_.maxCompletion, store_done);
            const unsigned store_bytes = pe->memWidth / 8;
            if (store_vec) {
                storeVec(mem_vaddr, *store_vec, store_bytes);
            } else if (store_value) {
                storeValue(mem_vaddr, *store_value, store_bytes);
            }
            result_ready = std::max(result_ready, store_done);
        }
    }
    if (!(pe->flags & planflag::kIsBranch)) {
        retire_insn(result_ready, false, false);
        goto next_entry;
    }
    {
        std::uint8_t &counter = branchTable_.counter(current_index());
        // Unconditional / RAS-predicted branches predict themselves.
        bool predicted_taken = pe->flags & planflag::kUncondBranch
                                   ? taken
                                   : counter >= 2;
        bool mispredicted = predicted_taken != taken;
        if (taken && counter < 3)
            ++counter;
        else if (!taken && counter > 0)
            --counter;
        if (mispredicted) {
            // Pipeline restart.
            Cycles redirect = core_done + 15;
            sched_.issueCycle = std::max(sched_.issueCycle, redirect);
            sched_.issuedInCycle = 0;
        }
        retire_insn(result_ready, true, mispredicted);
        if (taken) {
            taken = false;
            relocate(branch_target);
            goto retired;
        }
    }
    // fall through

next_entry:
    ++pe;
retired:
    ++ctx.stats.instructions;
    if (interruptsEnabled_ && sched_.maxCompletion >= nextInterrupt_)
        maybeInterrupt(ctx);
    goto next_insn;

finished:
    ctx.stats.endCycle = sched_.maxCompletion;
    if (obs) {
        obs->instructions += ctx.stats.instructions;
        obs->cycles += ctx.stats.endCycle - ctx.stats.startCycle;
    }
    return ctx.stats;
}

} // namespace nb::sim
