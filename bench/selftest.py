#!/usr/bin/env python3
"""Fast self-test of the benchmark (under a minute on two cores).

    python3 bench/selftest.py

Runs every workload at the tiny size (d=16, n=40) for one second with
tracing off and on, and checks that

- each run exits 0 and ends with the result object: exactly the keys
  ``correct``, ``attempted``, ``failed``, ``metrics``, a passing check,
  and exactly the metrics BENCHMARK.json names for the mode, each with
  the unit BENCHMARK.json gives it and printed by name above the result,
  and with tracing off the wall-clock figures printed there as well;
- every span has an end, a parent in the same replicate, and lies
  inside its parent; siblings do not overlap;
- in each replicate the self times of all spans sum to the root span's
  duration, and the per-layer ``*.self_ms`` metrics sum to the mean
  traced replicate span;
- the reference comparison rejects perturbed outputs and accepts the
  reference itself;
- in a directory holding only BENCHMARK.json and ``bench/``, the
  benchmark exits non-zero without printing a result.

Exits 1 on the first failed check.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SEED = 1


def fail(msg):
    sys.exit(f"selftest FAILED: {msg}")


def run_bench(workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def check_result(workload, trace, proc, spec):
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        fail(f"{workload} trace {trace}: {lines[-1][:200]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics/units differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines):
            fail(f"{workload}: {name} not printed with its unit")
    raw = ("replicates_per_s", "replicate_ms_p50", "replicate_ms_p90", "failed_frac")
    for name in raw if not trace else ():
        if not any(line.split()[:1] == [name] for line in lines):
            fail(f"{workload}: {name} not printed")
    return result


def check_spans(workload, result):
    with open(OUT_DIR / f"spans-{workload}-seed{SEED}-tiny.json") as fh:
        rows = json.load(fh)["spans"]
    spans = {row[0]: row for row in rows}
    children, roots = {}, {}
    for sid, parent, rep, name, start, end, _ in rows:
        if end is None or end < start:
            fail(f"{workload}: span {sid} {name} has no valid end")
        if parent is None:
            if rep in roots:
                fail(f"{workload}: replicate {rep} has two root spans")
            roots[rep] = sid
            continue
        p = spans[parent]
        if p[2] != rep:
            fail(f"{workload}: span {sid} and its parent are in different replicates")
        if not p[4] <= start <= end <= p[5]:
            fail(f"{workload}: span {sid} {name} is not inside its parent")
        children.setdefault(parent, []).append((start, end))
    self_sum = dict.fromkeys(roots, 0)
    for sid, _, rep, _, start, end, _ in rows:
        kids = sorted(children.get(sid, ()))
        if any(b[0] < a[1] for a, b in zip(kids, kids[1:])):
            fail(f"{workload}: children of span {sid} overlap")
        self_sum[rep] += (end - start) - sum(hi - lo for lo, hi in kids)
    for rep, root in roots.items():
        if self_sum[rep] != spans[root][5] - spans[root][4]:
            fail(f"{workload}: self times of replicate {rep} do not sum to its span")
    mean_root_ms = sum(spans[r][5] - spans[r][4] for r in roots.values()) / len(roots) / 1e6
    layer_ms = sum(m["value"] for k, m in result["metrics"].items() if k.endswith("self_ms"))
    if not math.isclose(layer_ms, mean_root_ms, rel_tol=1e-9):
        fail(f"{workload}: layer self_ms sum {layer_ms} != mean replicate span {mean_root_ms}")
    if len(roots) != result["metrics"]["traced_replicates"]["value"]:
        fail(f"{workload}: {len(roots)} traced replicates in the spans file")


def check_reference_compare():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    ref = workloads.load_reference("typeone-gmm")[0]
    rec = dict(ref)
    if workloads.reference_errors(rec, ref):
        fail("the reference does not match itself")
    rec["score_stat"] = ref["score_stat"] * (1 + 1e-9)
    if workloads.reference_errors(rec, ref):
        fail("a 1e-9 relative change was rejected")
    for key, value in (("score_stat", ref["score_stat"] * (1 + 1e-5)),
                       ("support", ref["support"][:-1] + [ref["support"][-1] + 1]),
                       ("wald_reject", 1 - ref["wald_reject"]),
                       ("status", "degenerate")):
        if not workloads.reference_errors(dict(ref, **{key: value}), ref):
            fail(f"a changed {key} was accepted")


def check_bare_directory():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fit-em", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran in a directory without the package")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_reference_compare()
    check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(workload, 0, run_bench(workload, 0), spec)
        result = check_result(workload, 1, run_bench(workload, 1), spec)
        check_spans(workload, result)
        print(f"{workload}: ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
