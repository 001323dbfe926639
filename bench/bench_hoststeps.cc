/**
 * @file
 * Host instructions per simulated instruction, counted exactly.
 *
 * Wall-clock benches on a shared VM drift by 20-30% between minutes;
 * the number of host instructions the executor retires per simulated
 * instruction does not. This program forks one child, which prepares
 * each workload and then brackets the part to count between two
 * raise() markers (SIGUSR1 ... SIGUSR2). The parent traces the child
 * with ptrace and PTRACE_SINGLESTEPs it from one marker to the other,
 * counting steps; the child reports how many instructions it simulated
 * in between over a pipe. The steps of an empty bracket (the markers'
 * own cost) are subtracted.
 *
 * Workloads (Skylake, kernel mode, no interrupts):
 *  - the noMem measurement program (readout of the fixed counters
 *    around `localUnrollCount` 200 copies of the body, no loop) for
 *    `nop`, `add RAX, RBX` and `add RAX, RAX; imul RBX, RBX`, one
 *    Machine::execute() each;
 *  - the instruction table's ADD_R64_R64 throughput spec run through a
 *    Session, all-in: codegen, decode, every counter round, unroll
 *    version and run, and aggregation;
 *  - the same spec reduced to its per-run fixed cost: body `nop`,
 *    unroll 1, basic mode -- every counter round's codegen, decode and
 *    readouts, and next to no body;
 *  - the `add RAX, [R14]` throughput spec, all-in: the memory path
 *    (translation, TLB, cache hierarchy, physical memory) per
 *    simulated load.
 *
 * Linux only. Where ptrace is unavailable (another platform, or a
 * sandbox that forbids it) it prints "unavailable" and exits 0.
 *
 *   ./build/bench/bench_hoststeps
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__linux__)
#include <csignal>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/logging.hh"
#include "core/codegen.hh"
#include "core/engine.hh"
#include "uarch/uarch.hh"
#include "uops/characterize.hh"
#include "x86/assembler.hh"

namespace
{

using namespace nb;

/** One counted bracket: a label and the work between the markers,
 *  which returns the number of instructions it simulated. */
struct Workload
{
    std::string label;
    std::uint64_t (*run)();
};

#if defined(__linux__)

void
markStart()
{
    raise(SIGUSR1);
}

void
markStop()
{
    raise(SIGUSR2);
}

/** The noMem measurement program of bench_hotpath, around @p body. */
std::uint64_t
runNoMem(const char *body)
{
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    machine.setPrivilege(sim::Privilege::Kernel);
    machine.setInterruptsEnabled(false);
    core::GenParams p;
    p.body = x86::assemble(body);
    p.localUnrollCount = 200;
    p.noMem = true;
    p.readouts = {{core::ReadoutItem::Kind::FixedPmc, 0, "Instructions"},
                  {core::ReadoutItem::Kind::FixedPmc, 1, "Core cycles"}};
    sim::Program prog = core::buildMeasurementProgram(p, machine.uarch());
    machine.execute(prog); // warm the scheduler and PMU buffers
    machine.pmu().beginEpoch();
    markStart();
    sim::ExecStats stats = machine.execute(prog);
    markStop();
    return stats.instructions;
}

std::uint64_t
runNop()
{
    return runNoMem("nop");
}

std::uint64_t
runAdd()
{
    return runNoMem("add RAX, RBX");
}

std::uint64_t
runAddImul()
{
    return runNoMem("add RAX, RAX; imul RBX, RBX");
}

/**
 * The instruction table's throughput spec of @p asm_code run through a
 * Session, after @p adjust has edited it.
 */
std::uint64_t
runThroughputSpec(const char *asm_code,
                  void (*adjust)(core::BenchmarkSpec &spec))
{
    Engine engine;
    SessionOptions opt;
    opt.uarch = "Skylake";
    opt.mode = core::Mode::Kernel;
    Session session = engine.session(opt);
    uops::Characterizer characterizer(session);
    uops::CharacterizationPlan plan =
        characterizer.plan(x86::assemble(asm_code));
    const core::BenchmarkSpec *planned_spec = nullptr;
    for (const uops::PlannedSpec &planned : plan.specs) {
        if (planned.role == uops::PlannedSpec::Role::Throughput)
            planned_spec = &planned.spec;
    }
    if (planned_spec == nullptr)
        fatal("no throughput spec planned for ", asm_code);
    core::BenchmarkSpec spec = *planned_spec;
    adjust(spec);

    // The simulated instructions of one run, from an observer on an
    // uncounted run (a run's instruction count does not depend on the
    // machine's history in kernel mode).
    sim::ExecObserver observer;
    session.machine().setExecObserver(&observer);
    session.runOrThrow(spec);
    session.machine().setExecObserver(nullptr);

    markStart();
    core::BenchmarkResult result = session.runOrThrow(spec);
    markStop();
    if (result.lines.empty())
        fatal("throughput spec produced no result lines");
    return observer.instructions;
}

std::uint64_t
runAddSpec()
{
    return runThroughputSpec("add RAX, RBX", [](core::BenchmarkSpec &) {});
}

std::uint64_t
runReadoutOnly()
{
    return runThroughputSpec("add RAX, RBX", [](core::BenchmarkSpec &spec) {
        spec.asmCode.clear();
        spec.code = x86::assemble("nop");
        spec.unrollCount = 1;
        spec.basicMode = true;
    });
}

std::uint64_t
runMemorySpec()
{
    return runThroughputSpec("add RAX, [R14]",
                             [](core::BenchmarkSpec &) {});
}

std::uint64_t
runEmpty()
{
    markStart();
    markStop();
    return 0;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"markers only", runEmpty},
        {"nop", runNop},
        {"add RAX, RBX", runAdd},
        {"add RAX, RAX; imul RBX, RBX", runAddImul},
        {"ADD_R64_R64 throughput spec (all-in)", runAddSpec},
        {"ADD_R64_R64 readout only (nop, basic)", runReadoutOnly},
        {"add RAX, [R14] throughput spec (all-in)", runMemorySpec},
    };
    return list;
}

[[noreturn]] void
childMain(int out_fd)
{
    if (ptrace(PTRACE_TRACEME, 0, nullptr, nullptr) != 0)
        _exit(3);
    raise(SIGSTOP); // wait until the tracer is ready
    setQuiet(true);
    for (const Workload &w : workloads()) {
        std::uint64_t simulated = w.run();
        if (write(out_fd, &simulated, sizeof simulated) !=
            static_cast<ssize_t>(sizeof simulated))
            _exit(4);
    }
    _exit(0);
}

/** Wait for the next stop of @p pid; false once it has exited. */
bool
waitStop(pid_t pid, int *sig)
{
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFSTOPPED(status))
        return false;
    *sig = WSTOPSIG(status);
    return true;
}

int
trace()
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::puts("bench_hoststeps: unavailable (pipe failed)");
        return 0;
    }
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0) {
        std::puts("bench_hoststeps: unavailable (fork failed)");
        return 0;
    }
    if (pid == 0) {
        close(fds[0]);
        childMain(fds[1]);
    }
    close(fds[1]);

    int sig = 0;
    if (!waitStop(pid, &sig) || sig != SIGSTOP) {
        waitpid(pid, nullptr, 0);
        std::puts("bench_hoststeps: unavailable (ptrace not permitted)");
        return 0;
    }
    ptrace(PTRACE_SETOPTIONS, pid, nullptr,
           reinterpret_cast<void *>(PTRACE_O_EXITKILL));

    std::printf("host instructions per simulated instruction "
                "(Skylake, kernel mode)\n");
    double marker_steps = 0;
    bool stopped = true; // at the SIGSTOP above
    for (const Workload &w : workloads()) {
        // Run to the start marker, suppressing the markers' signals.
        int deliver = 0;
        for (;;) {
            if (stopped &&
                ptrace(PTRACE_CONT, pid, nullptr,
                       reinterpret_cast<void *>(
                           static_cast<long>(deliver))) != 0) {
                std::puts("bench_hoststeps: unavailable (child lost)");
                return 0;
            }
            if (!waitStop(pid, &sig)) {
                std::puts("bench_hoststeps: child exited early");
                return 1;
            }
            stopped = true;
            if (sig == SIGUSR1)
                break;
            deliver = sig == SIGSTOP ? 0 : sig;
        }
        std::uint64_t steps = 0;
        for (;;) {
            if (ptrace(PTRACE_SINGLESTEP, pid, nullptr, nullptr) != 0 ||
                !waitStop(pid, &sig)) {
                std::puts("bench_hoststeps: unavailable (step failed)");
                return 0;
            }
            if (sig == SIGUSR2)
                break;
            if (sig != SIGTRAP) {
                std::printf("bench_hoststeps: unexpected signal %d\n",
                            sig);
                return 1;
            }
            ++steps;
        }
        // Let the child write its count, then read it; the next
        // workload starts by waiting for the child's next marker.
        if (ptrace(PTRACE_CONT, pid, nullptr, nullptr) != 0)
            return 1;
        stopped = false;
        std::uint64_t simulated = 0;
        if (read(fds[0], &simulated, sizeof simulated) !=
            static_cast<ssize_t>(sizeof simulated)) {
            std::puts("bench_hoststeps: child did not report");
            return 1;
        }
        if (simulated == 0) {
            marker_steps = static_cast<double>(steps);
            std::printf("  %-40s %8llu steps\n", w.label.c_str(),
                        static_cast<unsigned long long>(steps));
            continue;
        }
        double per_insn =
            (static_cast<double>(steps) - marker_steps) /
            static_cast<double>(simulated);
        std::printf("  %-40s %8.1f  (%llu steps / %llu simulated)\n",
                    w.label.c_str(), per_insn,
                    static_cast<unsigned long long>(steps),
                    static_cast<unsigned long long>(simulated));
        std::fflush(stdout);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return 0;
}

#endif // __linux__

} // namespace

int
main()
{
#if defined(__linux__)
    return trace();
#else
    std::puts("bench_hoststeps: unavailable (needs Linux ptrace)");
    return 0;
#endif
}
