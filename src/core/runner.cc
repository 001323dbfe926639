/**
 * @file
 * Runner implementation.
 */

#include "runner.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "x86/assembler.hh"
#include "x86/encoding.hh"

namespace nb::core
{

using x86::Instruction;
using x86::Reg;

namespace
{

/** Append the decimal digits of @p value. */
void
appendDecimal(std::string &out, std::uint64_t value)
{
    char digits[20];
    out.append(digits, std::to_chars(digits, digits + 20, value).ptr);
}

/** Number of decimal digits of @p value. */
std::size_t
decimalWidth(std::uint64_t value)
{
    std::size_t width = 1;
    for (; value >= 10; value /= 10)
        ++width;
    return width;
}

// A canonical key is a list of length-prefixed fields,
// "<length>:<payload>\x1f" (unambiguous even if a payload contains the
// separator). keyFields() names the fields once; KeySizer measures
// them and KeyWriter writes them into a string of exactly that size.

/** Counts the bytes of a key's fields. */
struct KeySizer
{
    std::size_t size = 0;

    void
    payload(std::size_t length)
    {
        size += decimalWidth(length) + 1 + length + 1;
    }
    void field(std::string_view text) { payload(text.size()); }
    void field(std::uint64_t value) { payload(decimalWidth(value)); }
    void field(const std::vector<Instruction> &code)
    {
        payload(x86::hexSize(code));
    }
};

/** Writes a key's fields to a buffer sized by KeySizer. */
struct KeyWriter
{
    char *cursor;

    void
    prefix(std::size_t length)
    {
        cursor = std::to_chars(cursor, cursor + 20, length).ptr;
        *cursor++ = ':';
    }
    void
    field(std::string_view text)
    {
        prefix(text.size());
        cursor = std::copy(text.begin(), text.end(), cursor);
        *cursor++ = '\x1f';
    }
    void
    field(std::uint64_t value)
    {
        prefix(decimalWidth(value));
        cursor = std::to_chars(cursor, cursor + 20, value).ptr;
        *cursor++ = '\x1f';
    }
    /** Code is keyed by the hex of its x86::encode() bytes. */
    void
    field(const std::vector<Instruction> &code)
    {
        prefix(x86::hexSize(code));
        cursor = x86::writeHex(cursor, code);
        *cursor++ = '\x1f';
    }
};

template <typename Fields>
void
keyFields(const BenchmarkSpec &spec, Fields &out)
{
    out.field(spec.asmCode);
    out.field(spec.asmInit);
    out.field(spec.code);
    out.field(spec.init);
    out.field(spec.unrollCount);
    out.field(spec.loopCount);
    out.field(spec.nMeasurements);
    out.field(spec.warmUpCount);
    out.field(static_cast<std::uint64_t>(spec.agg));
    out.field(static_cast<std::uint64_t>(spec.basicMode));
    out.field(static_cast<std::uint64_t>(spec.noMem));
    out.field(static_cast<std::uint64_t>(spec.serialize));
    out.field(static_cast<std::uint64_t>(spec.fixedCounters));
    out.field(static_cast<std::uint64_t>(spec.aperfMperf));
    out.field(static_cast<std::uint64_t>(spec.lintLevel));
    // Appended only when armed so every pre-existing key (and the
    // golden artifacts deduped/cached under them) stays byte-stable.
    if (spec.cycleBudget != 0)
        out.field(spec.cycleBudget);
    for (const auto &event : spec.config.events()) {
        out.field(event.code.evsel);
        out.field(event.code.umask);
        out.field(static_cast<std::uint64_t>(event.id));
        out.field(event.displayName);
    }
}

using PhaseClock = std::chrono::steady_clock;

/** Nanoseconds elapsed since @p start. */
std::uint64_t
nsSince(PhaseClock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            PhaseClock::now() - start)
            .count());
}

} // namespace

std::string
specCanonicalKey(const BenchmarkSpec &spec)
{
    KeySizer sizer;
    keyFields(spec, sizer);
    std::string key(sizer.size, '\0');
    KeyWriter writer{key.data()};
    keyFields(spec, writer);
    NB_ASSERT(writer.cursor == key.data() + key.size(),
              "canonical key fields overran their measured size");
    return key;
}

std::uint64_t
specHash(const BenchmarkSpec &spec)
{
    // FNV-1a, 64 bit.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : specCanonicalKey(spec)) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

const char *
modeName(Mode mode)
{
    return mode == Mode::Kernel ? "kernel" : "user";
}

const char *
lintLevelName(LintLevel level)
{
    switch (level) {
      case LintLevel::Off: return "off";
      case LintLevel::Warn: return "warn";
      case LintLevel::Error: return "error";
    }
    return "?";
}

std::optional<LintLevel>
lintLevelFromName(std::string_view name)
{
    for (LintLevel level :
         {LintLevel::Off, LintLevel::Warn, LintLevel::Error}) {
        if (name == lintLevelName(level))
            return level;
    }
    return std::nullopt;
}

std::string
BenchmarkSpec::summary() const
{
    std::string out;
    out.reserve(asmCode.size() + asmInit.size() + 96);
    auto number = [&](std::string_view label, std::uint64_t value) {
        out += label;
        appendDecimal(out, value);
    };
    if (!asmCode.empty()) {
        out += "asm=\"";
        out += asmCode;
        out += '"';
    } else {
        number("code=<", code.size());
        out += " insns>";
    }
    if (!asmInit.empty()) {
        out += " init=\"";
        out += asmInit;
        out += '"';
    } else if (!init.empty()) {
        number(" init=<", init.size());
        out += " insns>";
    }
    number(" unroll=", unrollCount);
    number(" loop=", loopCount);
    number(" n=", nMeasurements);
    number(" warmup=", warmUpCount);
    out += " agg=";
    out += aggregateName(agg);
    if (basicMode)
        out += " basic_mode";
    if (noMem)
        out += " no_mem";
    if (aperfMperf)
        out += " aperf_mperf";
    if (lintLevel != LintLevel::Off) {
        out += " lint=";
        out += lintLevelName(lintLevel);
    }
    if (cycleBudget != 0)
        number(" cycle_budget=", cycleBudget);
    return out;
}

std::optional<SpecIssue>
validateSpec(const BenchmarkSpec &spec, Mode mode)
{
    if (spec.nMeasurements == 0) {
        return SpecIssue{SpecIssue::Kind::Invalid,
                         "nMeasurements must be at least 1 (the "
                         "aggregate of zero measurements is undefined)"};
    }
    if (spec.unrollCount == 0) {
        return SpecIssue{SpecIssue::Kind::Invalid,
                         "unrollCount must be at least 1 (zero unrolled "
                         "copies measure nothing)"};
    }
    if (spec.aperfMperf && mode != Mode::Kernel) {
        return SpecIssue{
            SpecIssue::Kind::Unsupported,
            "APERF/MPERF can only be read in kernel space (§II-A1)"};
    }
    return std::nullopt;
}

Runner::Runner(sim::Machine &machine, Mode mode)
    : machine_(machine), mode_(mode),
      alloc_(machine.memory(), &machine.rng(),
             /*frag_probability=*/mode == Mode::Kernel ? 0.0 : 0.15)
{
    machine_.setPrivilege(mode == Mode::Kernel ? sim::Privilege::Kernel
                                               : sim::Privilege::User);
    machine_.setRdpmcUserEnabled(true); // the tool sets CR4.PCE
    setupMemoryAreas();
    markResetPoint();
    // Register the per-phase timing histograms once; updates through
    // the cached handles are lock-free on the run path.
    for (unsigned i = 0; i < obs::kNumPhases; ++i) {
        phaseHist_[i] = &obs::Registry::process().histogram(
            std::string("runner.phase.") +
                obs::phaseName(static_cast<obs::Phase>(i)),
            obs::phaseHistogramBounds());
    }
}

void
Runner::markResetPoint()
{
    setupCursor_ = alloc_.cursor();
    setupR14Base_ = r14Base_;
    setupR14Size_ = r14Size_;
    machine_.markResetPoint();
}

void
Runner::reset()
{
    machine_.reset();
    alloc_.rewind(setupCursor_);
    r14Base_ = setupR14Base_;
    r14Size_ = setupR14Size_;
    lastRunCycles_ = 0;
    lastRunRounds_ = 0;
    phaseTimes_ = {};
    decodes_ = 0;
}

void
Runner::addPhaseTime(obs::Phase phase, std::uint64_t ns)
{
    phaseTimes_[phase] += ns;
    phaseHist_[static_cast<unsigned>(phase)]->observe(
        static_cast<double>(ns));
}

void
Runner::setupMemoryAreas()
{
    constexpr Addr kAreaSize = 1024 * 1024; // 1 MB each (§III-G)
    auto alloc_area = [&](const char *what) -> Addr {
        if (mode_ == Mode::Kernel) {
            auto a = alloc_.allocContiguous(kAreaSize);
            NB_ASSERT(a.has_value(), "cannot allocate ", what, " area");
            return a->vaddr;
        }
        // User-space areas are ordinary pages: physically scattered.
        return alloc_.allocFragmented(kAreaSize).vaddr;
    };
    r14Base_ = alloc_area("R14");
    rdiBase_ = alloc_area("RDI");
    rsiBase_ = alloc_area("RSI");
    rbpBase_ = alloc_area("RBP");
    rspBase_ = alloc_area("RSP");
    r14Size_ = kAreaSize;
    // Results/scratch area for the counter readout (memory mode).
    resultBase_ = alloc_.allocFragmented(layout::kAreaSize).vaddr;
}

bool
Runner::reserveR14Area(Addr size)
{
    if (mode_ != Mode::Kernel) {
        warn("reserveR14Area is only available in kernel mode (§III-G)");
        return false;
    }
    auto a = alloc_.allocContiguous(size);
    if (!a)
        return false;
    r14Base_ = a->vaddr;
    r14Size_ = a->size;
    return true;
}

void
Runner::initRegisters()
{
    auto &arch = machine_.arch();
    arch.writeGpr(Reg::R14, 64, r14Base_);
    arch.writeGpr(Reg::RDI, 64, rdiBase_);
    arch.writeGpr(Reg::RSI, 64, rsiBase_);
    arch.writeGpr(Reg::RBP, 64, rbpBase_ + 0x80000);
    arch.writeGpr(Reg::RSP, 64, rspBase_ + 0x80000);
}

void
Runner::userModeProgrammingOverhead()
{
    // Programming counters from user space goes through the perf
    // subsystem: model the syscall + kernel path as a few thousand
    // simulated instructions of unmeasured work. One NOP, decoded
    // once and repeat-encoded 4000 times -- the legacy path executed
    // a materialized 4000-element NOP vector on every counter-
    // programming round.
    if (!syscallProgram_) {
        std::vector<sim::Program::Segment> segments(1);
        segments[0].code = x86::assemble("nop");
        segments[0].repeat = 4000;
        syscallProgram_ = sim::Program::decode(machine_.uarch(),
                                               std::move(segments));
    }
    machine_.execute(*syscallProgram_);
}

std::array<sim::Program, 2>
Runner::measurementPrograms(const GenParams &params, std::uint64_t unroll_a,
                            std::uint64_t unroll_b)
{
    // Generation and decode are timed separately (obs::Phase).
    fault::maybeInject(fault::Site::Decode);
    auto t0 = PhaseClock::now();
    MeasurementLayout layout = buildMeasurementLayout(params);
    const std::vector<std::uint64_t> repeats_a = layout.repeatsFor(unroll_a);
    const std::vector<std::uint64_t> repeats_b = layout.repeatsFor(unroll_b);
    addPhaseTime(obs::Phase::Codegen, nsSince(t0));
    auto t1 = PhaseClock::now();
    const sim::Program decoded =
        sim::Program::decode(machine_.uarch(), std::move(layout.segments));
    std::array<sim::Program, 2> progs = {decoded.withRepeats(repeats_a),
                                         decoded.withRepeats(repeats_b)};
    addPhaseTime(obs::Phase::Decode, nsSince(t1));
    ++decodes_;
    if (decodeCounter_)
        ++*decodeCounter_;
    return progs;
}

std::vector<double>
Runner::executeOnce(const sim::Program &prog, const GenParams &params)
{
    // Algorithm 1, lines 2/11: save and restore all registers.
    sim::ArchState saved = machine_.arch();
    initRegisters();

    bool kernel = mode_ == Mode::Kernel;
    bool prev_irq = machine_.interruptsEnabled();
    if (kernel) {
        // The kernel version disables interrupts during measurements
        // (§III-D, §IV-A2).
        machine_.setInterruptsEnabled(false);
    }

    machine_.pmu().beginEpoch();
    machine_.pmu().setPaused(false);
    machine_.execute(prog);

    // Collect raw m2-m1 values.
    std::vector<double> raw(params.readouts.size(), 0.0);
    if (params.noMem) {
        for (std::size_t i = 0; i < params.readouts.size(); ++i) {
            Reg accum = noMemAccumulators()[i];
            raw[i] = static_cast<double>(static_cast<std::int64_t>(
                machine_.arch().readGpr(accum, 64)));
        }
    } else {
        auto &mem = machine_.memory();
        for (std::size_t i = 0; i < params.readouts.size(); ++i) {
            std::uint64_t m1 = mem.readVirt(
                params.resultBase + layout::kM1Offset + 8 * i, 8);
            std::uint64_t m2 = mem.readVirt(
                params.resultBase + layout::kM2Offset + 8 * i, 8);
            raw[i] = static_cast<double>(m2) - static_cast<double>(m1);
        }
    }

    if (kernel)
        machine_.setInterruptsEnabled(prev_irq);
    machine_.arch() = saved;
    return raw;
}

BenchmarkResult
Runner::run(const BenchmarkSpec &spec)
{
    Cycles cycles_begin = machine_.cycles();

    // Assemble body/init if given as text (the session layer usually
    // pre-assembles and credits its time via addPhaseTime).
    std::vector<Instruction> body = spec.code;
    std::vector<Instruction> init = spec.init;
    if (body.empty() && !spec.asmCode.empty()) {
        auto t0 = PhaseClock::now();
        body = x86::assemble(spec.asmCode);
        addPhaseTime(obs::Phase::Assemble, nsSince(t0));
    }
    if (init.empty() && !spec.asmInit.empty()) {
        auto t0 = PhaseClock::now();
        init = x86::assemble(spec.asmInit);
        addPhaseTime(obs::Phase::Assemble, nsSince(t0));
    }
    if (body.empty())
        fatal("empty benchmark body");
    // Reject unusable parameters up front: without this, an empty
    // measurement set would trip (or, without asserts, overrun) the
    // aggregate functions deep inside the measurement loop.
    if (auto issue = validateSpec(spec, mode_))
        fatal(issue->message);

    // Arm the per-run cycle budget. RAII: a pooled machine must never
    // carry a previous spec's deadline into the next run, including
    // when the budget trips and unwinds through here.
    struct BudgetGuard
    {
        sim::Machine &machine;
        ~BudgetGuard() { machine.setCycleBudget(0); }
    } budget_guard{machine_};
    if (spec.cycleBudget != 0) {
        machine_.setCycleBudget(spec.cycleBudget);
        obs::Registry::process().counter("runner.budget.armed").add();
    }

    auto &pmu = machine_.pmu();
    BenchmarkResult result;

    // Fixed counters first, like the §III-A example output.
    std::vector<ReadoutItem> fixed_items;
    if (spec.fixedCounters && pmu.hasFixed()) {
        fixed_items.push_back({ReadoutItem::Kind::FixedPmc, 0,
                               "Instructions retired"});
        fixed_items.push_back(
            {ReadoutItem::Kind::FixedPmc, 1, "Core cycles"});
        fixed_items.push_back(
            {ReadoutItem::Kind::FixedPmc, 2, "Reference cycles"});
    }
    if (spec.aperfMperf) {
        // mode_ == Kernel here: validateSpec() rejected the rest.
        fixed_items.push_back(
            {ReadoutItem::Kind::Msr, sim::msr::kAperf, "APERF"});
        fixed_items.push_back(
            {ReadoutItem::Kind::Msr, sim::msr::kMperf, "MPERF"});
    }

    auto rounds = spec.config.rounds(pmu.numProg());
    if (rounds.empty())
        rounds.push_back({}); // fixed counters only

    std::uint64_t normalization =
        std::max<std::uint64_t>(1, spec.loopCount) * spec.unrollCount;

    bool first_round = true;
    std::uint64_t executed_rounds = 0;
    for (const auto &round : rounds) {
        // Program the counters for this round.
        for (unsigned i = 0; i < pmu.numProg(); ++i)
            pmu.disableProg(i);
        std::vector<ReadoutItem> items = first_round
                                             ? fixed_items
                                             : std::vector<ReadoutItem>{};
        for (std::size_t i = 0; i < round.size(); ++i) {
            pmu.configureProg(static_cast<unsigned>(i), round[i].code);
            items.push_back({ReadoutItem::Kind::ProgPmc,
                             static_cast<std::uint32_t>(i),
                             round[i].displayName});
        }
        if (mode_ == Mode::User)
            userModeProgrammingOverhead();
        if (items.empty())
            continue;

        GenParams params;
        params.body = body;
        params.init = init;
        params.loopCount = spec.loopCount;
        params.serialize = spec.serialize;
        params.noMem = spec.noMem;
        params.readouts = items;
        params.resultBase = resultBase_;

        // The two code versions whose difference removes the
        // measurement overhead (§III-C).
        std::uint64_t unroll_a = spec.basicMode ? 0 : spec.unrollCount;
        std::uint64_t unroll_b =
            spec.basicMode ? spec.unrollCount : 2 * spec.unrollCount;

        // Built once per round, shared by both versions and every
        // warm-up and measurement iteration below, and dropped with
        // this round: nothing outlives the run.
        const std::array<sim::Program, 2> progs =
            measurementPrograms(params, unroll_a, unroll_b);
        std::vector<std::vector<double>> agg_ab;
        for (const sim::Program &prog : progs) {
            // Algorithm 2: warm-up runs are executed but discarded.
            std::vector<std::vector<double>> measurements(items.size());
            auto exec_start = PhaseClock::now();
            for (int i = -static_cast<int>(spec.warmUpCount);
                 i < static_cast<int>(spec.nMeasurements); ++i) {
                auto raw = executeOnce(prog, params);
                if (i >= 0) {
                    for (std::size_t k = 0; k < raw.size(); ++k)
                        measurements[k].push_back(raw[k]);
                }
            }
            addPhaseTime(obs::Phase::Execute, nsSince(exec_start));
            auto agg_start = PhaseClock::now();
            std::vector<double> agg(items.size());
            for (std::size_t k = 0; k < items.size(); ++k)
                agg[k] = applyAggregate(spec.agg,
                                        std::move(measurements[k]));
            addPhaseTime(obs::Phase::Aggregate, nsSince(agg_start));
            agg_ab.push_back(std::move(agg));
        }

        // In both modes the two versions differ by exactly
        // loopCount * unrollCount body executions.
        double denom = static_cast<double>(normalization);
        for (std::size_t k = 0; k < items.size(); ++k) {
            double diff = agg_ab[1][k] - agg_ab[0][k];
            result.lines.push_back({items[k].name, diff / denom});
        }
        first_round = false;
        ++executed_rounds;
    }

    lastRunCycles_ = machine_.cycles() - cycles_begin;
    lastRunRounds_ = executed_rounds;

    result.uarch = machine_.uarch().name;
    result.mode = modeName(mode_);
    result.specEcho = spec.summary();
    result.lastRunCycles = lastRunCycles_;
    return result;
}

} // namespace nb::core
