/**
 * @file
 * The threaded executor (Machine::execute) against its frozen corpus,
 * and the invariants between its own runs.
 *
 * tests/data/dispatch_corpus.json holds every observable of the
 * dispatch workloads below: ExecStats, GPRs, vector registers, flags,
 * every scalar event total, and one digest per time-resolved counter
 * series (the fixed and programmable counters, APERF and MPERF,
 * sampled every `stride` cycles until past the end of the run, so
 * post-retirement plateaus count too). The switch-based reference
 * executor that execute() replaced recorded it. Every timing rule --
 * the port choice and its tie-break, the scheduler window, issue and
 * retire widths, fences, CPUID's RNG draws, the branch predictor,
 * timer interrupts, the PMU sync points -- shows up in some workload,
 * so a change to any of them fails DispatchCorpus.ExecuteMatchesFrozen
 * Corpus. An intended timing change rewrites the corpus: on a mismatch
 * the test writes what it observed next to the test binary and prints
 * the `cp` that accepts it.
 *
 * The other tests compare execute() with itself: an attached observer
 * changes nothing, repeat-encoded ≡ materialized, reset ≡ fresh, and
 * the observer's µop counts ≡ the PMU's µop events.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/machine.hh"
#include "x86/assembler.hh"

namespace nb::sim
{
namespace
{

using x86::assemble;
using x86::Reg;

std::unique_ptr<Machine>
makeMachine(bool kernel = true, bool interrupts = false)
{
    auto m =
        std::make_unique<Machine>(uarch::getMicroArch("Skylake"), 42);
    m->setPrivilege(kernel ? Privilege::Kernel : Privilege::User);
    m->setInterruptsEnabled(interrupts);
    for (Addr page = 0; page < 64; ++page) {
        m->memory().pageTable().mapPage(0x10000 + page * kPageSize,
                                        0x10000 + page * kPageSize);
    }
    return m;
}

/** Configure all four Skylake programmable counters so UopsIssued /
 *  UopsExecuted / port events are logged -- the widest loggedMask the
 *  batching has to preserve cycle-exactly. */
void
configureCounters(Machine &m)
{
    m.pmu().configureProg(0, EventCode{0x0E, 0x01}); // UopsIssued
    m.pmu().configureProg(1, EventCode{0xB1, 0x01}); // UopsExecuted
    m.pmu().configureProg(2, EventCode{0xA1, 0x01}); // port 0
    m.pmu().configureProg(3, EventCode{0xC4, 0x00}); // branches
}

void
setStack(Machine &m)
{
    m.arch().writeGpr(Reg::RSP, 64, 0x10000 + 32 * kPageSize);
}

void
countersAndR14(Machine &m)
{
    configureCounters(m);
    m.arch().writeGpr(Reg::R14, 64, 0x10000);
}

// The dispatch workloads. All of them but the PFC-marker stretches and
// the timer-interrupt loop run unpaused in kernel mode without
// interrupts, so they double as the inputs of
// DispatchInvariant.ObserverMatchesPmuTotals.
const char *const kAluMix =
    "mov RAX, 7; mov RBX, RAX; add RBX, 5; imul RBX, RBX; "
    "sub RAX, 3; xor RCX, RCX; lea RDX, [RAX+RBX*4+8]; "
    "shl RDX, 3; popcnt RSI, RDX; neg RAX; not RBX; "
    "inc RCX; dec RDX; cmovz RDI, RAX; bswap RBX; "
    "test RDX, RDX; setz AL";
const char *const kLoadsAndStores =
    "mov R14, 0x10000; mov RBX, 77; mov [R14], RBX; "
    "mov RCX, [R14]; mov [R14+64], RCX; "
    "mov R14, 0x10000; mov [R14], R14; mov R14, [R14]; "
    "mov R14, [R14]; add RCX, [R14+64]; "
    "mov RDX, 0x10400; mov [RDX], RCX; mov RSI, [RDX]";
const char *const kFences = "mov RAX, 1; lfence; imul RAX, RAX; mfence; "
                            "add RAX, 2; sfence; imul RBX, RAX; lfence";
const char *const kCpuid = "mov RAX, 3; cpuid; imul RBX, RBX; cpuid; "
                           "add RCX, 1; cpuid";
const char *const kBranches =
    "mov R15, 50; l: add RAX, 1; imul RBX, RBX; dec R15; jnz l; "
    "mov RAX, 1; call f; add RAX, 100; jmp done; "
    "f: add RAX, 10; ret; done: nop";
const char *const kVectorOps =
    "pxor XMM1, XMM1; pxor XMM2, XMM2; paddd XMM1, XMM2; "
    "movaps [0x10080], XMM1; movaps XMM3, [0x10080]; "
    "addps XMM3, XMM1; mulps XMM3, XMM3; "
    "vaddps YMM4, YMM3, YMM3";
const char *const kCountedLoop = "mov R15, 30; l: add RAX, 1; "
                                 "imul RBX, RBX; mov RCX, [R14]; "
                                 "dec R15; jnz l";
/** WRMSRs to IA32_PERFEVTSELx mid-run (on counters configureCounters
 *  set up): counter 2 moves from port 0 to port 1, counter 1 from
 *  UopsExecuted to port 5, and counter 0 (UopsIssued) is disabled, so
 *  µop events switch between logged and tallied mid-run. */
const char *const kReselect =
    "add RAX, 1; imul RBX, RBX; add RSI, 2; "
    "mov RCX, 0x188; mov RAX, 0x4002A1; mov RDX, 0; wrmsr; "
    "add RSI, 1; imul RDI, RDI; add R8, 1; mov R9, [R14]; "
    "mov RCX, 0x187; mov RAX, 0x4020A1; wrmsr; "
    "add R10, 1; imul R11, R11; mov [R14+8], R10; "
    "mov RCX, 0x186; mov RAX, 0; wrmsr; "
    "add R12, 1; imul R13, R13; add RSI, R12";
/** The µop tally splits exactly at the WRMSR and PFC-marker sync
 *  points, and the paused stretch dispatches µops while all four
 *  counters are live but must count none of them. */
const std::string kReselectAndPause =
    std::string(kReselect) +
    "; mov RCX, 0x186; mov RAX, 0x40010E; wrmsr; "
    "add RAX, 1; pfc_pause; add RBX, 1; "
    "imul RCX, RCX; mov RDX, [R14]; add RSI, RDI; "
    "pfc_resume; imul RDI, RDI; add R8, 3";
/** 20k iterations with a load push ~80k µops through the scheduler
 *  window, whose FIFO compacts over and over; the loop branch and the
 *  logged counters exercise the branch table and the PMU logs. */
const char *const kLongLoadLoop =
    "mov R15, 20000; mov R14, 0x10000; mov [R14], R14; "
    "l: mov R14, [R14]; add RAX, R14; dec R15; jnz l";
/** ~3.6M cycles of dependent 64-bit DIVs (RAX stays 1, RDX 0). */
const char *const kInterruptedLoop =
    "mov RAX, 1; xor EDX, EDX; mov RBX, 1; mov R15, 100000; "
    "l: div RBX; dec R15; jnz l";
/** The body of the repeat-encoded workloads. */
const char *const kRepeatBody = "add RAX, 1; imul RBX, RBX";
constexpr std::uint64_t kRepeats = 100;

/** One workload: its program, the machine it runs on, and how often
 *  its counters are sampled. */
struct Workload
{
    const char *name;
    std::string code;
    /** Executed copies of `code`: more than one decodes it as one
     *  repeat-encoded block. */
    std::uint64_t repeat = 1;
    void (*setup)(Machine &) = nullptr;
    bool kernel = true;
    bool interrupts = false;
    /** Sampling stride in cycles. A read before an event's newest
     *  increment scans its whole log, so the long runs sample
     *  sparsely. */
    Cycles stride = 3;
};

std::string
repeatedText(const char *body, std::uint64_t copies)
{
    std::string text;
    for (std::uint64_t i = 0; i < copies; ++i) {
        if (i)
            text += "; ";
        text += body;
    }
    return text;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"AluMix", kAluMix},
        {"LoadsAndStores", kLoadsAndStores},
        {"FencesAndSerialization", kFences},
        // CPUID draws its latency and µop count from the machine RNG
        // (§IV-A1).
        {"CpuidSerialization", kCpuid},
        {"BranchesCallsAndLoops", kBranches, 1, setStack},
        {"PfcMarkersPauseAndResume",
         "add RAX, 1; pfc_pause; add RAX, 1; imul RBX, RBX; "
         "pfc_resume; add RAX, 1",
         1, configureCounters},
        {"VectorOps", kVectorOps},
        // Every programmable counter live: UopsIssued, UopsExecuted
        // and the port counts take the logged path while the rest
        // batch.
        {"ConfiguredCountersTimeResolved", kCountedLoop, 1,
         countersAndR14},
        {"MidRunReselectionAndPausedStretch", kReselectAndPause, 1,
         countersAndR14},
        // User mode with interrupts: a DIV chain long enough for timer
        // interrupts (one per ~2M cycles), whose arrival and handler
        // draw from the machine RNG.
        {"UserModeTimerInterrupts", kInterruptedLoop, 1, nullptr, false,
         true, 4099},
        {"LongLoadLoop", kLongLoadLoop, 1, configureCounters, true, false,
         97},
        {"RepeatEncoded", kRepeatBody, kRepeats},
        {"Materialized", repeatedText(kRepeatBody, kRepeats)},
    };
    return list;
}

/** The workload named @p name. */
const Workload &
workload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return w;
    }
    panic("no dispatch workload named ", name);
}

Program
decodeWorkload(const Workload &w)
{
    std::vector<Program::Segment> segments(1);
    segments[0].code = assemble(w.code);
    segments[0].repeat = w.repeat;
    return Program::decode(uarch::getMicroArch("Skylake"),
                           std::move(segments));
}

/** A machine set up for @p w. */
std::unique_ptr<Machine>
workloadMachine(const Workload &w)
{
    auto m = makeMachine(w.kernel, w.interrupts);
    if (w.setup)
        w.setup(*m);
    return m;
}

std::string
hex(std::uint64_t v)
{
    char buf[2 + 16];
    buf[0] = '0';
    buf[1] = 'x';
    auto res = std::to_chars(buf + 2, buf + sizeof(buf), v, 16);
    return {buf, res.ptr};
}

/** FNV-1a over the little-endian bytes of a series of values. */
struct Digest
{
    std::uint64_t h = 0xCBF29CE484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    }
};

/**
 * Every observable of @p m after running @p w (see the file comment),
 * as the workload's entry of the corpus: one member per line, in a
 * fixed order, so the corpus compares as text and diffs by line.
 */
std::string
observe(const Workload &w, Machine &m, const ExecStats &s)
{
    std::ostringstream os;
    os << std::boolalpha << "    {\n      \"name\": \"" << w.name << "\",\n"
       << "      \"stats\": {\"instructions\": " << s.instructions
       << ", \"uops\": " << s.uops << ", \"start_cycle\": " << s.startCycle
       << ", \"end_cycle\": " << s.endCycle
       << ", \"interrupts\": " << s.interrupts << "},\n";

    const ArchState &a = m.arch();
    os << "      \"gpr\": {";
    for (unsigned r = 0; r < x86::kNumGprs; ++r) {
        os << (r ? ",\n               " : "") << '"'
           << x86::regName(static_cast<Reg>(r)) << "\": \""
           << hex(a.gpr[r]) << '"';
    }
    os << "},\n      \"vec\": {";
    for (unsigned r = 0; r < x86::kNumVecRegs; ++r) {
        os << (r ? ",\n               " : "") << '"'
           << x86::regName(static_cast<Reg>(x86::kNumGprs + r))
           << "\": [";
        for (unsigned lane = 0; lane < 4; ++lane)
            os << (lane ? ", " : "") << '"' << hex(a.vec[r][lane]) << '"';
        os << ']';
    }
    os << "},\n      \"flags\": {\"zf\": " << a.zf << ", \"cf\": " << a.cf
       << ", \"sf\": " << a.sf << ", \"of\": " << a.of << "},\n";

    os << "      \"events\": {";
    for (unsigned e = 0; e < kNumEvents; ++e) {
        auto id = static_cast<EventId>(e);
        os << (e ? ",\n                  " : "") << '"' << eventIdName(id)
           << "\": " << m.pmu().total(id);
    }
    os << "},\n";

    const Pmu &pmu = m.pmu();
    Digest fixed[3];
    std::vector<Digest> prog(pmu.numProg());
    Digest aperf;
    Digest mperf;
    std::uint64_t points = 0;
    for (Cycles c = 0; c <= s.endCycle + w.stride; c += w.stride) {
        ++points;
        for (unsigned i = 0; i < 3; ++i)
            fixed[i].add(pmu.readFixed(i, c));
        for (unsigned i = 0; i < prog.size(); ++i)
            prog[i].add(pmu.readProg(i, c));
        aperf.add(pmu.aperf(c));
        mperf.add(pmu.mperf(c));
    }
    os << "      \"samples\": {\"stride\": " << w.stride
       << ", \"points\": " << points;
    for (unsigned i = 0; i < 3; ++i)
        os << ",\n                  \"fixed" << i << "\": \""
           << hex(fixed[i].h) << '"';
    for (std::size_t i = 0; i < prog.size(); ++i)
        os << ",\n                  \"prog" << i << "\": \""
           << hex(prog[i].h) << '"';
    os << ",\n                  \"aperf\": \"" << hex(aperf.h) << '"'
       << ",\n                  \"mperf\": \"" << hex(mperf.h)
       << "\"}\n    }";
    return os.str();
}

/** Run @p w on a fresh machine and describe it (see observe()). */
std::string
runWorkload(const Workload &w, ExecObserver *observer = nullptr)
{
    auto m = workloadMachine(w);
    m->setExecObserver(observer);
    Program prog = decodeWorkload(w);
    ExecStats s = m->execute(prog);
    return observe(w, *m, s);
}

/** The corpus file's text for the given workload entries. */
std::string
corpusText(const std::vector<std::string> &entries)
{
    std::string text = "{\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i)
        text += entries[i] + (i + 1 < entries.size() ? ",\n" : "\n");
    return text + "  ]\n}\n";
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        out.push_back(line);
    return out;
}

TEST(DispatchCorpus, ExecuteMatchesFrozenCorpus)
{
    const std::string path =
        std::string(NB_TEST_DATA_DIR) + "/dispatch_corpus.json";
    std::stringstream frozen_text;
    if (std::ifstream in{path})
        frozen_text << in.rdbuf();
    const std::string frozen = frozen_text.str();

    std::vector<std::string> entries;
    for (const Workload &w : workloads())
        entries.push_back(runWorkload(w));
    const std::string observed = corpusText(entries);
    if (observed == frozen)
        return;

    // Name the first differing line and the workload it belongs to.
    const std::vector<std::string> want = lines(frozen);
    const std::vector<std::string> got = lines(observed);
    std::size_t i = 0;
    while (i < want.size() && i < got.size() && want[i] == got[i])
        ++i;
    std::string workload = "(none)";
    const std::string key = "\"name\": \"";
    for (std::size_t j = std::min(i, got.size()); j-- > 0;) {
        const std::size_t at = got[j].find(key);
        if (at != std::string::npos) {
            const std::size_t begin = at + key.size();
            workload = got[j].substr(begin, got[j].find('"', begin) - begin);
            break;
        }
    }
    const std::string out =
        std::string(NB_TEST_BINARY_DIR) + "/dispatch_corpus.observed.json";
    std::ofstream(out) << observed;
    ADD_FAILURE() << "execute() no longer matches the frozen corpus; "
                  << "first difference at line " << i + 1
                  << " in workload " << workload << "\n  frozen:   "
                  << (i < want.size() ? want[i] : "(end of file)")
                  << "\n  observed: "
                  << (i < got.size() ? got[i] : "(end of file)")
                  << "\nIf the timing change is intended, accept it with\n"
                  << "  cp " << out << " " << path;
}

TEST(DispatchInvariant, ObserverLeavesEveryObservableUnchanged)
{
    // Observation is read-only: the same workload with an observer
    // attached yields the same corpus entry.
    for (const Workload &w : workloads()) {
        SCOPED_TRACE(w.name);
        ExecObserver observer;
        EXPECT_EQ(runWorkload(w), runWorkload(w, &observer));
        EXPECT_GT(observer.instructions, 0u);
    }
}

TEST(DispatchInvariant, RepeatEncodedMatchesMaterialized)
{
    // A repeat-encoded block must be indistinguishable from the same
    // body materialized N times.
    const Workload &repeat = workload("RepeatEncoded");
    Workload materialized = workload("Materialized");
    materialized.name = repeat.name;
    EXPECT_EQ(runWorkload(repeat), runWorkload(materialized));
}

TEST(DispatchInvariant, LongLoadLoopResetMatchesFresh)
{
    // The scheduler window, the branch table and the PMU logs all
    // hold state across a long run: after reset() a machine must
    // replay the run exactly like a fresh one.
    const Workload &loop = workload("LongLoadLoop");
    Program prog = decodeWorkload(loop);

    auto used = makeMachine();
    used->markResetPoint(); // keep the mapped pages across reset()
    configureCounters(*used);
    used->execute(prog);
    used->reset();
    configureCounters(*used);
    ExecStats su = used->execute(prog);
    EXPECT_EQ(observe(loop, *used, su), runWorkload(loop));
}

TEST(DispatchInvariant, ObserverMatchesPmuTotals)
{
    // The ExecObserver's µop counts and the PMU's µop events come from
    // one tally: over every unpaused kernel-mode workload (no timer
    // interrupts, whose handler counts µops the observer does not
    // see), UopsIssued equals the issued µops, each UopsPort<p> the
    // µops dispatched to port p, and UopsExecuted their sum --
    // whichever of those events were logged on a counter.
    struct Case
    {
        const char *name;
        const char *code;
        void (*setup)(Machine &);
    };
    const Case cases[] = {
        {"alu", kAluMix, nullptr},
        {"loads_stores", kLoadsAndStores, nullptr},
        {"fences", kFences, nullptr},
        {"cpuid", kCpuid, nullptr},
        {"branches", kBranches, setStack},
        {"vector", kVectorOps, nullptr},
        {"counted_loop", kCountedLoop, countersAndR14},
        {"reselect", kReselect, countersAndR14},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto m = makeMachine();
        if (c.setup)
            c.setup(*m);
        ExecObserver obs;
        m->setExecObserver(&obs);
        m->execute(Program::decode(m->uarch(), assemble(c.code)));

        const Pmu &pmu = m->pmu();
        EXPECT_GT(obs.uopsIssued, 0u);
        EXPECT_EQ(obs.uopsIssued, pmu.total(EventId::UopsIssued));
        std::uint64_t dispatched = 0;
        for (unsigned p = 0; p < ExecObserver::kMaxPorts; ++p) {
            dispatched += obs.portUops[p];
            if (p < 8) {
                EXPECT_EQ(obs.portUops[p], pmu.total(portEvent(p)))
                    << "port " << p;
            }
        }
        EXPECT_EQ(dispatched, pmu.total(EventId::UopsExecuted));
        EXPECT_GE(obs.uopsDispatched, dispatched);
    }
}

} // namespace
} // namespace nb::sim
