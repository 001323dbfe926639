#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload table|profile|batch|all \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout. The first run configures
and builds perfbench/ (and the library from the enclosing tree) into
.bench_build/perfbench; later runs rebuild incrementally. The last line
of stdout is one JSON object: correct, attempted, failed, metrics
(--workload all prints every workload's lines in turn, each ending in
its own JSON object).
With --trace 1 the spans are written to .bench_build/perfbench/ and
their per-layer self times are printed before that line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
# A run measures for --seconds and then finishes its last pass; this
# caps a wedged one below the 180 s a run may take.
RUN_TIMEOUT_S = 170
WORKLOADS = ["table", "profile", "batch"]

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import summarize  # noqa: E402


def build():
    """Configure (once) and build the benchmark; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_e2e", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                return False
    return True


def run_workload(workload, seed, seconds, trace):
    """Run one workload's process, print its lines; exit status."""
    trace_file = BUILD / f"trace_{workload}_{seed}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--configs", str(ROOT / "configs"), "--trace-file", str(trace_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    if trace:
        report, coverage = summarize.summarize(trace_file)
        print("\n".join(report))
        result["metrics"]["obs.span_coverage"] = {"value": coverage,
                                                  "unit": "ratio"}
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"],
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        status = run_workload(workload, args.seed, args.seconds, args.trace)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
