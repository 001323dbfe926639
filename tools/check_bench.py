#!/usr/bin/env python3
"""Bench-regression gate for CI.

Merges one or more google-benchmark JSON outputs (bench_simperf,
bench_campaign, bench_table) into a single BENCH_ci.json artifact and compares
machine-independent RATIOS between benchmarks against a committed
baseline (bench/BENCH_baseline.json). Ratios, not absolute times, so
the check is robust to runner speed; a ratio more than `tolerance`
times worse than its baseline fails the job.

Checked ratios:
  pooled_setup_ratio      BM_SessionSetupPooled / BM_SessionSetupCold
                          (the Engine-pool amortization; regresses if
                          pooled sessions start paying construction)
  wbinvd_loop_vs_access   BM_HierarchyWbinvdLoop / BM_HierarchyAccess
                          (WBINVD + 16 loads on filled Skylake caches
                          vs one random access; the epoch-stamped flush
                          is O(1), so this is ~16 accesses -- a flush
                          that walks every set makes it ~30x worse)
  campaign_jobs4_vs_serial  BM_CampaignJobs/4 / BM_CampaignSerialBatch
                          (parallel campaign throughput vs the
                          single-session batch; regresses if the
                          worker pool stops scaling)
  dedup_vs_nodedup        BM_CampaignDedup/dedup:1 / dedup:0
                          (the spec-level result cache)
  table_jobs4_vs_serial   BM_TableCampaign/4 / BM_TableSerial
                          (full-catalog characterization through the
                          campaign executor vs the serial
                          characterizer; regresses if the table
                          workload stops scaling)
  profile_jobs4_vs_serial BM_ProfileCampaign/4 / BM_ProfileSerial
                          (machine-profile construction through the
                          campaign executor -- machine reset per spec,
                          so layout-invariant -- vs the serial
                          plan-order run on one machine; regresses if
                          the profile workload stops scaling or the
                          per-spec machine reset gets dearer)
  predecode_vs_legacy     BM_HotpathPredecoded / BM_HotpathLegacy
                          (the predecoded-program hot path vs
                          re-materializing + re-decoding the unrolled
                          measurement code per execution; ratcheted
                          for the threaded executor -- the baseline
                          now encodes >= 2.5x simulated-instruction
                          throughput end to end)
  lint_overhead           BM_CampaignLint/lint:1 / BM_CampaignLint/lint:0
                          (an identical campaign with every spec opted
                          into LintLevel::Error vs linting off; the
                          report memo keys on the canonical spec key,
                          so steady-state lint cost must stay near
                          zero)
  bound_overhead          BM_CampaignBound/bound:1 / BM_CampaignBound/bound:0
                          (an identical campaign with every spec also
                          run through the memoized static bound
                          analyzer vs the plain campaign; the bound
                          memo keys on the canonical spec key, so
                          steady-state bound analysis must stay near
                          zero)
  trace_overhead          BM_CampaignTrace/trace:1 / BM_CampaignTrace/trace:0
                          (an identical campaign with a DISABLED
                          obs::Tracer attached vs no tracer at all;
                          the disabled path is one pointer check per
                          span site, so the ratio carries its own
                          tight 1.05x tolerance in the baseline
                          "tolerances" map. trace:2 -- tracing fully
                          enabled -- rides along in the artifact but
                          is not gated)
  observe_overhead        BM_CampaignObserve/observe:1 / BM_CampaignObserve/observe:0
                          (an identical campaign with per-worker
                          ExecObservers attached vs detached; the
                          observer's relaxed counter bumps are
                          negligible next to assemble/decode, so this
                          is gated at 1.05x like trace_overhead)
  budget_overhead         BM_HotpathBudget/1 / BM_HotpathBudget/0
                          (the threaded-dispatch hot path with a
                          never-tripping cycle budget armed vs
                          disarmed; the amortized deadline check is
                          one masked compare per instruction, so this
                          is pinned at 1.05x in the tolerances map --
                          budgets must never tax dispatch)
  chase_vs_register       ns per instruction of BM_HotpathL2Chase /
                          BM_HotpathPredecoded (a pointer chase over an
                          L2-resident ring vs the register-only hot
                          path, both through the threaded executor;
                          regresses if the memory-access path -- TLB,
                          cache lookups, fills -- gets dearer per
                          access)
  ports_vs_register       ns per instruction of BM_HotpathPortCounters /
                          BM_HotpathPredecoded (the instruction table's
                          throughput shape with a port event on every
                          programmable counter vs the register-only hot
                          path; regresses if logged PMU accounting --
                          one time-resolved increment per port
                          dispatch -- gets dearer)

Per-ratio tolerances: the baseline file may carry a "tolerances" map
overriding --tolerance for individual ratios (used to pin the two
disabled-path observability overheads at 1.05x instead of 2x).

Repetitions: a benchmark run with --benchmark_repetitions=N reports N
`iteration` entries under one name (plus mean/median/stddev
aggregates, which are ignored). Each ratio uses the MINIMUM over a
benchmark's iteration entries -- real time for RATIOS, ns per item for
ITEM_RATIOS -- since noise on a shared machine only ever adds time.
CI runs bench_hotpath and bench_obs, whose 1.05x pins sit closest to
that noise, with 5 repetitions; a single-run input is its own minimum.

Usage:
  check_bench.py --baseline bench/BENCH_baseline.json \
      --out BENCH_ci.json simperf.json campaign.json table.json \
      profile.json hotpath.json analysis.json bound.json obs.json
"""

import argparse
import json
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# ratio name -> (numerator benchmark, denominator benchmark)
RATIOS = {
    "pooled_setup_ratio": ("BM_SessionSetupPooled", "BM_SessionSetupCold"),
    "wbinvd_loop_vs_access": ("BM_HierarchyWbinvdLoop", "BM_HierarchyAccess"),
    "campaign_jobs4_vs_serial": ("BM_CampaignJobs/4", "BM_CampaignSerialBatch"),
    "dedup_vs_nodedup": ("BM_CampaignDedup/dedup:1", "BM_CampaignDedup/dedup:0"),
    "table_jobs4_vs_serial": ("BM_TableCampaign/4", "BM_TableSerial"),
    "profile_jobs4_vs_serial": ("BM_ProfileCampaign/4", "BM_ProfileSerial"),
    "predecode_vs_legacy": ("BM_HotpathPredecoded", "BM_HotpathLegacy"),
    "lint_overhead": ("BM_CampaignLint/lint:1", "BM_CampaignLint/lint:0"),
    "bound_overhead": ("BM_CampaignBound/bound:1", "BM_CampaignBound/bound:0"),
    "trace_overhead": ("BM_CampaignTrace/trace:1", "BM_CampaignTrace/trace:0"),
    "observe_overhead": ("BM_CampaignObserve/observe:1", "BM_CampaignObserve/observe:0"),
    "budget_overhead": ("BM_HotpathBudget/1", "BM_HotpathBudget/0"),
}

# Like RATIOS, but of ns per processed item (SetItemsProcessed), for
# benchmarks whose iterations do different amounts of work.
ITEM_RATIOS = {
    "chase_vs_register": ("BM_HotpathL2Chase", "BM_HotpathPredecoded"),
    "ports_vs_register": ("BM_HotpathPortCounters", "BM_HotpathPredecoded"),
}


def load_benchmarks(paths):
    merged = {"benchmarks": []}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if "context" in doc and "context" not in merged:
            merged["context"] = doc["context"]
        merged["benchmarks"].extend(doc.get("benchmarks", []))
    return merged


def find_entries(benchmarks, name):
    """Every `iteration` entry of a benchmark (one per repetition)."""
    entries = [
        entry
        for entry in benchmarks
        if entry.get("name") == name
        and entry.get("run_type", "iteration") == "iteration"
    ]
    if not entries:
        sys.exit(f"error: benchmark '{name}' not found in the merged results")
    return entries


def real_time_ns(benchmarks, name):
    """Minimum real time over the benchmark's repetitions."""
    times = []
    for entry in find_entries(benchmarks, name):
        unit = TIME_UNIT_NS.get(entry.get("time_unit", "ns"))
        if unit is None:
            sys.exit(f"error: unknown time unit in entry '{name}'")
        times.append(entry["real_time"] * unit)
    return min(times)


def ns_per_item(benchmarks, name):
    """Minimum ns per processed item over the benchmark's repetitions."""
    costs = []
    for entry in find_entries(benchmarks, name):
        if not entry.get("items_per_second"):
            sys.exit(f"error: benchmark '{name}' reports no items_per_second")
        costs.append(1e9 / entry["items_per_second"])
    return min(costs)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+", help="google-benchmark JSON files")
    parser.add_argument("--baseline", required=True, help="committed baseline ratios")
    parser.add_argument("--out", help="write the merged results here (the CI artifact)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when a ratio is more than this factor worse than baseline "
        "(overridable per ratio via the baseline's \"tolerances\" map)",
    )
    args = parser.parse_args()

    merged = load_benchmarks(args.inputs)
    with open(args.baseline) as f:
        baseline = json.load(f)

    observed = {}
    for ratio_name, (numerator, denominator) in RATIOS.items():
        observed[ratio_name] = real_time_ns(
            merged["benchmarks"], numerator
        ) / real_time_ns(merged["benchmarks"], denominator)
    for ratio_name, (numerator, denominator) in ITEM_RATIOS.items():
        observed[ratio_name] = ns_per_item(
            merged["benchmarks"], numerator
        ) / ns_per_item(merged["benchmarks"], denominator)

    if args.out:
        merged["ratios"] = observed
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=2)

    failed = False
    for ratio_name, value in observed.items():
        reference = baseline.get("ratios", {}).get(ratio_name)
        if reference is None:
            print(f"warn: no baseline for {ratio_name} (observed {value:.4g})")
            continue
        tolerance = baseline.get("tolerances", {}).get(ratio_name, args.tolerance)
        limit = reference * tolerance
        verdict = "ok" if value <= limit else "REGRESSION"
        print(
            f"{ratio_name}: observed {value:.4g}, baseline {reference:.4g}, "
            f"limit {limit:.4g} -> {verdict}"
        )
        if value > limit:
            failed = True

    if failed:
        sys.exit("error: benchmark regression detected (see ratios above)")
    print("bench check passed")


if __name__ == "__main__":
    main()
