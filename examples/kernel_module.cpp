/**
 * @file
 * Driving nanoBench through the kernel module's virtual-file interface
 * (paper §IV-C), exactly like a shell user of the real module would:
 * write the benchmark parameters to files under /sys/nb/, then read
 * /proc/nanoBench to generate the code, run it, and collect results.
 *
 * Also demonstrates the machine-code path (§III-E): the benchmark body
 * is assembled to bytes first -- including the magic pause/resume
 * sequences (§III-I) -- and written to the code_bytes file.
 *
 * Usage: ./build/examples/kernel_module
 */

#include <iostream>

#include "common/logging.hh"
#include "core/module.hh"
#include "sim/machine.hh"
#include "uarch/uarch.hh"
#include "x86/assembler.hh"
#include "x86/encoding.hh"

namespace
{

int
run()
{
    using namespace nb;
    nb::setQuiet(true);

    // "insmod nb.ko": bind the module to a machine.
    sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
    core::NanoBenchModule module(machine);

    std::cout << "Virtual files exposed by the module:\n";
    for (const auto &path : module.paths())
        std::cout << "  " << path << "\n";

    // echo "..." > /sys/nb/...
    module.writeFile("/sys/nb/unroll_count", "1");
    module.writeFile("/sys/nb/basic_mode", "1");
    module.writeFile("/sys/nb/no_mem", "1");
    module.writeFile("/sys/nb/fixed_counters", "0");
    module.writeFile("/sys/nb/n_measurements", "3");
    module.writeFile("/sys/nb/agg", "med");
    module.writeFile("/sys/nb/config",
                     "D1.01 MEM_LOAD_RETIRED.L1_HIT\n"
                     "D1.08 MEM_LOAD_RETIRED.L1_MISS\n");

    // The benchmark as raw machine code: warm two lines outside the
    // measurement (pfc_pause/pfc_resume markers become the magic byte
    // sequences of SIII-I in the encoded blob), then measure that
    // re-accessing them hits.
    auto code = x86::assemble(
        "pfc_pause; mov RBX, [R14]; mov RBX, [R14+64]; pfc_resume; "
        "mov RBX, [R14]; mov RBX, [R14+64]");
    auto bytes = x86::encode(code);
    module.writeFile("/sys/nb/code_bytes",
                     std::string(bytes.begin(), bytes.end()));

    // cat /proc/nanoBench
    std::cout << "\n$ cat /proc/nanoBench\n";
    std::cout << module.readFile("/proc/nanoBench");
    std::cout << "\n(2 warmed lines re-accessed: 2 hits, 0 misses; the "
                 "warming loads\nwere excluded by the magic markers)\n";
    return 0;
}

} // namespace

int
main()
{
    // A FatalError (a bad argument, or a machine the example cannot
    // analyze) already printed its "fatal: ..." line: exit 1 like the
    // CLI does.
    try {
        return run();
    } catch (const nb::FatalError &) {
        return 1;
    }
}
