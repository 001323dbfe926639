#!/usr/bin/env python3
"""Pin the nanobench CLI's batch output contract.

Every per-spec verb (-lint, -explain, -observe and plain runs) is run
in text, -json and -csv form on one spec, on a 3-spec -asm batch whose
middle spec fails to assemble, and on a -spec_file with a malformed
line. For each case the exit code, stdout and the "failed (<code>)"
stderr lines must match the expected record in tests/cli_output/.
Outputs that carry wall-clock values (-report, the -stats numbers) are
left out of the records; the -trace, -stats and campaign-only-flag
cases assert properties instead.

Usage:
  cli_output.py NANOBENCH            # check (exit 1 on any mismatch)
  cli_output.py NANOBENCH --update   # rewrite the expected records
"""

import argparse
import difflib
import os
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "cli_output")
SPEC_FILE = os.path.join(EXPECTED_DIR, "specs.txt")
CHECK_TRACE = os.path.join(HERE, os.pardir, "tools", "check_trace.py")

SINGLE = ["-asm", "add RAX, RAX"]
BATCH = ["-asm", "add RAX, RAX", "-asm", "bogus", "-asm", "mov R14, [R14]",
         "-asm_init", "mov [R14], R14"]
INPUTS = {"single": SINGLE, "batch": BATCH,
          "specfile": ["-spec_file", SPEC_FILE]}
VERBS = {"lint": ["-lint"], "explain": ["-explain"],
         "observe": ["-observe"], "run": []}
FORMATS = {"text": [], "json": ["-json"], "csv": ["-csv"]}


def golden_cases():
    cases = {}
    for verb, verb_args in VERBS.items():
        for fmt, fmt_args in FORMATS.items():
            for inp, inp_args in INPUTS.items():
                cases[f"{verb}-{fmt}-{inp}"] = verb_args + inp_args + fmt_args
    # Lint diagnostics (an error-severity one exits 1 without a
    # failure line) and -jobs 0 (one worker per hardware thread).
    lint_diag = ["-lint", "-asm", "mov R15, 5", "-loop_count", "10",
                 "-asm", "add RAX, RAX"]
    for fmt, fmt_args in FORMATS.items():
        cases[f"lint-{fmt}-diag"] = lint_diag + fmt_args
    cases["run-text-batch-jobs0"] = BATCH + ["-jobs", "0"]
    return cases


def run(binary, args, cwd):
    proc = subprocess.run([binary] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def record(binary, args, cwd):
    code, out, err = run(binary, args, cwd)
    failures = "".join(line + "\n" for line in err.splitlines()
                       if " failed (" in line)
    shown = shlex.join(os.path.relpath(a, HERE) if a == SPEC_FILE else a
                       for a in args)
    return (f"args: {shown}\nexit: {code}\n--- stdout\n{out}"
            f"--- stderr failure lines\n{failures}")


def check_goldens(binary, cwd, update):
    bad = []
    for name, args in golden_cases().items():
        got = record(binary, args, cwd)
        path = os.path.join(EXPECTED_DIR, name + ".out")
        if update:
            with open(path, "w") as f:
                f.write(got)
            continue
        with open(path) as f:
            want = f.read()
        if got != want:
            bad.append(name)
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), got.splitlines(True),
                f"{name} (expected)", f"{name} (actual)"))
    return bad


def check_fixes(binary, cwd):
    """Properties that hold for every verb: -trace writes a valid trace,
    -stats prints each number once, campaign-only flags are rejected
    where no batch campaign runs."""
    bad = []
    for verb, verb_args in VERBS.items():
        trace = os.path.join(cwd, f"{verb}.trace.json")
        code, _, _ = run(binary, verb_args + SINGLE + ["-trace", trace], cwd)
        # A plain run traces its campaign; the static verbs trace each
        # spec on a lane named after the verb.
        lane = "campaign" if verb == "run" else verb
        checked = subprocess.run(
            [sys.executable, CHECK_TRACE, trace, "--require", lane],
            capture_output=True, text=True)
        if code != 0 or checked.returncode != 0:
            bad.append(f"{verb} -trace: exit {code}; "
                       f"{checked.stdout}{checked.stderr}".strip())
        for fmt, fmt_args in FORMATS.items():
            code, _, err = run(binary, verb_args + SINGLE + fmt_args +
                               ["-stats"], cwd)
            if (code != 0 or err.count("process.peak_rss_mb") != 1 or
                    err.count("engine.pool_size") != 1 or
                    "engine telemetry" in err):
                bad.append(f"{verb} {fmt} -stats: exit {code}, stderr:\n"
                           f"{err}")
    rejecting = {"characterize": ["-characterize"],
                 "profile": ["-profile", os.path.join(cwd, "p.json")]}
    rejecting.update({v: a + SINGLE for v, a in VERBS.items() if a})
    for verb, verb_args in rejecting.items():
        for flag, value in (("-checkpoint", "ck.json"),
                            ("-resume", "ck.json"),
                            ("-max_retries", "2")):
            code, out, err = run(binary, verb_args + [flag, value], cwd)
            if code != 1 or flag not in err or out:
                bad.append(f"{verb} {flag}: exit {code}, stderr: {err!r}")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nanobench")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the expected records")
    opts = parser.parse_args()
    binary = os.path.abspath(opts.nanobench)
    with tempfile.TemporaryDirectory() as cwd:
        bad = check_goldens(binary, cwd, opts.update)
        if not opts.update:
            bad += check_fixes(binary, cwd)
    for line in bad:
        print(f"FAIL {line}")
    print(f"cli_output: {len(bad)} failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
