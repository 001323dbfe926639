#!/usr/bin/env python3
"""Lockstep check between the OpClass enum and the threaded dispatcher.

The threaded executor (src/sim/dispatch.cc) indexes a computed-goto
handler table by OpClass, so the table must list exactly one `&&op_*`
label per enumerator *in declaration order* -- a reordered or missing
entry silently dispatches the wrong semantics with no compiler
diagnostic beyond the table-size static_assert. This script re-derives
the contract from the sources so CI catches drift at review time:

  1. parses the OpClass enumerators from src/sim/program.hh
     (NumClasses excluded),
  2. parses the `&&op_*` labels out of the dispatcher's handlers[]
     table in declaration order,
  3. checks one-to-one positional correspondence, comparing the
     CamelCase enumerator against the snake_case label with
     underscores stripped (AddAdc <-> op_add_adc, SFence <->
     op_sfence),
  4. checks every table label has a matching `op_<name>:` handler
     definition in dispatch.cc,
  5. checks the scheduling-primitive lambdas in dispatch.cc still
     name-match their frozen Machine counterparts in machine.cc
     (issue_slot <-> Machine::issueSlot, dispatch_uop <->
     Machine::dispatchUop, retire_insn <-> Machine::retireInstr),
     which tests/test_dispatch.cc diffs cycle-for-cycle,
  6. checks the table-size static_assert against kNumOpClasses is
     still present,
  7. checks kPrologueFreeClasses in src/sim/program.hh names exactly
     the handlers of dispatch.cc's "fences and markers" section plus
     op_unhandled, that Program::decode gives exactly those classes
     the Serial plan shape (`!hasPrologue(plan.cls)`), and that the
     dispatcher runs the prologue for the Simple and General shapes
     right before its computed goto: every other handler starts after
     the prologue has run, so a handler moved into or out of that
     section without updating the list would run with or without it,
  8. checks that decode picks the Simple shape only for entries with
     one issue slot and one core µop and no memory operand, load,
     store, branch or privilege check -- the work the executor's
     straight-line Simple path leaves out. Each of those facts must be
     an `&&` conjunct of the condition.

Usage:
  check_dispatch_lockstep.py [--repo /path/to/repo]
"""

import argparse
import pathlib
import re
import sys

# What decode must require of an entry before giving it the Simple plan
# shape, whose straight-line path in dispatch.cc issues one slot,
# dispatches one core µop and skips memory, stores, branches and the
# privilege check. Spelled as Program::decode's fillPlan tests them: the
# plan's counts and its planflag bits (`flags` is the plan's bit set).
SIMPLE_SHAPE_FACTS = (
    "plan.nIssue == 1",
    "plan.nCore == 1",
    "!(flags & planflag::kHasMem)",
    "!(flags & planflag::kHasLoad)",
    "!(flags & planflag::kStoreUops)",
    "!(flags & planflag::kIsBranch)",
    "!(flags & planflag::kPrivileged)",
)

# dispatch.cc scheduling lambda -> frozen Machine member it mirrors
PRIMITIVE_PAIRS = {
    "issue_slot": "issueSlot",
    "dispatch_uop": "dispatchUop",
    "retire_insn": "retireInstr",
}


def parse_opclass(program_hh):
    text = program_hh.read_text()
    match = re.search(
        r"enum class OpClass[^{]*\{(.*?)\};", text, re.DOTALL
    )
    if not match:
        sys.exit(f"error: no OpClass enum found in {program_hh}")
    names = []
    for line in match.group(1).splitlines():
        line = re.sub(r"//.*", "", line).strip().rstrip(",")
        if re.fullmatch(r"[A-Za-z_]\w*", line):
            names.append(line)
    if not names or names[-1] != "NumClasses":
        sys.exit(
            "error: OpClass parse failed (expected a trailing "
            "NumClasses sentinel)"
        )
    return names[:-1]


def parse_handler_table(dispatch_cc):
    text = dispatch_cc.read_text()
    match = re.search(
        r"handlers\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL
    )
    if not match:
        sys.exit(f"error: no handlers[] table found in {dispatch_cc}")
    return re.findall(r"&&(op_\w+)", match.group(1)), text


def parse_prologue_free(program_hh):
    text = program_hh.read_text()
    match = re.search(
        r"kPrologueFreeClasses\[\]\s*=\s*\{(.*?)\};", text, re.DOTALL
    )
    if not match:
        sys.exit(f"error: no kPrologueFreeClasses found in {program_hh}")
    return re.findall(r"OpClass::(\w+)", match.group(1))


def parse_fence_section(dispatch_text):
    """Handler labels from the "// ----- fences and markers" section
    header up to and including op_unhandled."""
    match = re.search(
        r"^\s*//\s*-+\s*fences and markers[^\n]*\n(.*?^op_unhandled:)",
        dispatch_text,
        re.DOTALL | re.MULTILINE,
    )
    if not match:
        sys.exit(
            "error: no \"fences and markers\" section ending in "
            "op_unhandled found in dispatch.cc"
        )
    return re.findall(r"^(op_\w+):", match.group(1), re.MULTILINE)


def fold(name):
    """Case/underscore-insensitive spelling: AddAdc == op_add_adc."""
    return name.lower().replace("_", "").removeprefix("op")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's parent)",
    )
    args = parser.parse_args()
    src = args.repo / "src" / "sim"

    enumerators = parse_opclass(src / "program.hh")
    labels, dispatch_text = parse_handler_table(src / "dispatch.cc")
    machine_text = (src / "machine.cc").read_text()
    program_text = (src / "program.cc").read_text()

    failed = False

    def fail(msg):
        nonlocal failed
        failed = True
        print(f"error: {msg}")

    # 3. positional one-to-one correspondence
    if len(labels) != len(enumerators):
        fail(
            f"handlers[] has {len(labels)} entries but OpClass has "
            f"{len(enumerators)} enumerators"
        )
    for i, (enum_name, label) in enumerate(zip(enumerators, labels)):
        if fold(enum_name) != fold(label):
            fail(
                f"handlers[{i}] is &&{label} but OpClass slot {i} is "
                f"{enum_name} (expected op_{enum_name} in snake_case)"
            )

    # 4. every label has a handler definition
    for label in labels:
        if not re.search(rf"^\s*{label}:", dispatch_text, re.MULTILINE):
            fail(f"no '{label}:' handler definition in dispatch.cc")

    # 5. scheduling primitives stay name-paired with Machine
    for lam, member in PRIMITIVE_PAIRS.items():
        if not re.search(rf"\bauto {lam}\s*=", dispatch_text):
            fail(f"dispatch.cc lost the '{lam}' scheduling lambda")
        if not re.search(rf"\bMachine::{member}\b", machine_text):
            fail(f"machine.cc lost the 'Machine::{member}' primitive")

    # 6. the compile-time size guard is still in place
    if not re.search(
        r"static_assert\(sizeof\(handlers\)\s*/\s*sizeof\(handlers\[0\]\)"
        r"\s*==\s*\n?\s*kNumOpClasses\)",
        dispatch_text,
    ):
        fail("dispatch.cc lost the handlers[] size static_assert")

    # 7. the prologue-free classes are exactly the fence section
    free = parse_prologue_free(src / "program.hh")
    section = parse_fence_section(dispatch_text)
    free_folded = sorted(fold(name) for name in free)
    section_folded = sorted(fold(label) for label in section)
    if free_folded != section_folded:
        fail(
            f"kPrologueFreeClasses {free} does not match the handlers "
            f"of dispatch.cc's fences-and-markers section {section}"
        )
    for name in free:
        if name not in enumerators:
            fail(f"kPrologueFreeClasses names unknown OpClass::{name}")
    if not re.search(
        r"if \(!hasPrologue\(plan\.cls\)\)\s*"
        r"plan\.shape = PlanShape::Serial;",
        program_text,
    ):
        fail(
            "program.cc no longer gives the Serial plan shape to exactly "
            "the classes without a prologue (!hasPrologue(plan.cls))"
        )
    if not re.search(
        r"\n    if \(pe->shape == PlanShape::Simple\) \{\n.*?"
        r"\n    \} else if \(pe->shape == PlanShape::General\) \{\n.*?"
        r"\n    \}(?: else [^\n]*\{\n.*?\n    \})?\n"
        r"    goto \*handlers\[static_cast<unsigned>\(pe->cls\)\];",
        dispatch_text,
        re.DOTALL,
    ):
        fail(
            "dispatch.cc no longer runs the prologue for the Simple and "
            "General plan shapes right before its computed goto"
        )
    if re.search(r"\bprologue\(\);", dispatch_text):
        fail("a handler calls prologue() again; it runs before the goto")

    # 8. the Simple shape only covers what its straight line handles
    simple = re.search(
        r"PlanShape::Serial;\s*else if \((.*?)\)\s*"
        r"plan\.shape = PlanShape::Simple;",
        program_text,
        re.DOTALL,
    )
    if not simple:
        fail("program.cc no longer assigns the Simple plan shape")
    else:
        cond = " ".join(simple.group(1).split())
        # Each fact must be a top-level conjunct: `a || b` names both
        # facts but requires neither.
        conjuncts = [term.strip() for term in cond.split("&&")]
        if "||" in cond:
            fail(
                "the Simple plan shape condition is not a conjunction: "
                f"{cond}"
            )
        for fact in SIMPLE_SHAPE_FACTS:
            if fact not in conjuncts:
                fail(
                    f"the Simple plan shape no longer requires '{fact}' "
                    f"(condition: {cond})"
                )

    if failed:
        sys.exit("error: dispatch lockstep check failed (see above)")
    print(
        f"dispatch lockstep check passed: {len(enumerators)} OpClass "
        f"handlers in declaration order, "
        f"{len(PRIMITIVE_PAIRS)} primitive pairs, "
        f"{len(free)} prologue-free handlers, "
        f"{len(SIMPLE_SHAPE_FACTS)} Simple-shape conditions"
    )


if __name__ == "__main__":
    main()
