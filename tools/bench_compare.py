#!/usr/bin/env python3
"""Gate perfbench result documents against checked-in baselines.

Usage:
    bench_compare.py --baseline DIR --candidate DIR [--threshold T]
    bench_compare.py --validate-only --candidate DIR
    bench_compare.py --self-test

Each DIR holds one <workload>.json per workload named in BENCHMARK.json:
the JSON line perfbench/run.py prints last, {"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}.  The metric names,
units and `better` directions come from BENCHMARK.json's end_to_end
list, which this script only reads.

Rules, per workload:
    * the metric set is closed: a metric missing from, or not named in,
      the end_to_end list fails, as does a unit that differs from it;
    * correct must be true and failed must be 0 (the trie oracle
      agreed with every answer, and no operation failed);
    * a `higher` metric must be at least T x its baseline;
    * a `lower` metric must be at most its baseline / T.

Exit status: 0 all good, 1 validation failure or regression, 2 usage.
"""

import argparse
import json
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")


def fail(msg):
    print(f"bench_compare: FAIL: {msg}")
    return False


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: FAIL: cannot load {path}: {e}")
        return None


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate(doc, spec, path):
    """Check @p doc against the end_to_end list @p spec."""
    if not isinstance(doc, dict):
        return fail(f"{path}: not a JSON object")
    ok = True
    if doc.get("correct") is not True:
        ok = fail(f"{path}: correct is {doc.get('correct')!r}, "
                  "not true (oracle mismatch)")
    failed = doc.get("failed")
    if not is_number(failed) or failed != 0:
        ok = fail(f"{path}: failed is {failed!r}, not 0")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return fail(f"{path}: no metrics object")
    units = {m["name"]: m["unit"] for m in spec}
    for name in sorted(set(units) - set(metrics)):
        ok = fail(f"{path}: missing metric '{name}'")
    for name in sorted(set(metrics) - set(units)):
        ok = fail(f"{path}: unknown metric '{name}' (set is closed)")
    for name in sorted(set(units) & set(metrics)):
        m = metrics[name]
        if not isinstance(m, dict) or not is_number(m.get("value")):
            ok = fail(f"{path}: metric '{name}' has no numeric value")
        elif m.get("unit") != units[name]:
            ok = fail(f"{path}: metric '{name}' unit {m.get('unit')!r} "
                      f"!= {units[name]!r}")
    return ok


def compare(workload, spec, base, cand, threshold, show=True):
    ok = True
    for m in spec:
        name = m["name"]
        b = base["metrics"][name]["value"]
        c = cand["metrics"][name]["value"]
        if m["better"] == "higher":
            limit = b * threshold
            bad = c < limit
        else:
            limit = b / threshold
            bad = c > limit
        if show:
            print(f"bench_compare: {workload:<10} {name:<14} "
                  f"{b:14.6g} -> {c:14.6g} (limit {limit:.6g})")
        if bad:
            ok = fail(f"{workload}: {name} {c:.6g} past its limit "
                      f"{limit:.6g} (baseline {b:.6g}, "
                      f"better {m['better']})")
    return ok


def self_test(spec):
    """Embedded unit tests for the validation/compare rules.  @return 0/1."""
    import copy

    base_doc = {
        "correct": True,
        "attempted": 1000,
        "failed": 0,
        "metrics": {m["name"]: {"value": 100.0, "unit": m["unit"]}
                    for m in spec},
    }
    threshold = 0.40
    better = {m["name"]: m["better"] for m in spec}
    lower = next(n for n, b in better.items() if b == "lower")

    failures = []

    def check(name, got, want):
        tag = "ok" if got == want else "FAIL"
        print(f"self-test: {tag:<4} {name}")
        if got != want:
            failures.append(name)

    def doc_with(**values):
        doc = copy.deepcopy(base_doc)
        for name, value in values.items():
            doc["metrics"][name]["value"] = value
        return doc

    def gate(doc):
        return validate(doc, spec, "t") and compare(
            "t", spec, base_doc, doc, threshold, show=False)

    check("valid doc validates", validate(base_doc, spec, "t"), True)
    check("identical docs compare clean", gate(copy.deepcopy(base_doc)),
          True)

    doc = copy.deepcopy(base_doc)
    doc["metrics"]["brand_new_metric"] = {"value": 1.0, "unit": "count"}
    check("extra metric rejected", validate(doc, spec, "t"), False)

    doc = copy.deepcopy(base_doc)
    del doc["metrics"]["lookups_per_s"]
    check("missing metric rejected", validate(doc, spec, "t"), False)

    doc = copy.deepcopy(base_doc)
    doc["metrics"]["lookups_per_s"]["unit"] = "ops/s"
    check("unit drift rejected", validate(doc, spec, "t"), False)

    doc = doc_with(lookups_per_s=True)
    check("bool-as-number rejected", validate(doc, spec, "t"), False)

    doc = copy.deepcopy(base_doc)
    doc["correct"] = False
    check("correct: false rejected", validate(doc, spec, "t"), False)

    doc = copy.deepcopy(base_doc)
    doc["failed"] = 3
    check("failed > 0 rejected", validate(doc, spec, "t"), False)

    check("lower metric at its ceiling accepted",
          gate(doc_with(**{lower: 100.0 / threshold})), True)
    check("lower metric above its ceiling caught",
          gate(doc_with(**{lower: 100.0 / threshold * 1.01})), False)
    check("lookup_p99_us 10x caught",
          gate(doc_with(lookup_p99_us=1000.0)), False)

    for name in ("lookups_per_s", "updates_per_s"):
        check(f"{name} at its floor accepted",
              gate(doc_with(**{name: 100.0 * threshold})), True)
        check(f"{name} 10x collapse caught",
              gate(doc_with(**{name: 10.0})), False)

    if failures:
        print(f"bench_compare: self-test FAILED: {failures}")
        return 1
    print("bench_compare: self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--baseline", help="directory with baseline JSONs")
    ap.add_argument("--candidate", help="directory with new JSONs")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.40,
        help="allowed fraction of a baseline (default 0.40)",
    )
    ap.add_argument(
        "--validate-only",
        action="store_true",
        help="check the candidate documents, no comparison",
    )
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded unit tests and exit",
    )
    args = ap.parse_args()

    benchmark = load(BENCHMARK)
    if benchmark is None:
        return 1
    spec = benchmark["end_to_end"]
    if args.self_test:
        return self_test(spec)
    if not args.candidate:
        ap.error("--candidate is required unless --self-test")
    if not args.validate_only and not args.baseline:
        ap.error("--baseline is required unless --validate-only")

    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        name = f"{workload}.json"
        cand = load(os.path.join(args.candidate, name))
        if cand is None or not validate(cand, spec, name):
            ok = False
            continue
        if args.validate_only:
            print(f"bench_compare: {name}: valid")
            continue
        base = load(os.path.join(args.baseline, name))
        if base is None or not validate(base, spec, f"baseline/{name}"):
            ok = False
            continue
        if not compare(workload, spec, base, cand, args.threshold):
            ok = False

    if ok:
        print("bench_compare: OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
