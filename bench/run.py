#!/usr/bin/env python3
"""Replicate-level benchmark of the truncem pipeline.

    python3 bench/run.py --workload typeone-gmm --seed 0 --seconds 20 --trace 0

One process runs a closed loop with a single client: each replicate
(generate, fit and, on the typeone workloads, both tests) starts when the
previous one has finished, for ``--seconds`` seconds, after imports and
one untimed warm-up replicate.  BLAS is pinned to one thread before numpy
is imported.  Replicate ``r`` uses seed ``--seed + r``.

``--trace 0`` reports the end-to-end metrics, with replicate times in
``ctl``, the median time of ``control_kernel`` in the same run, and the
wall-clock figures printed beside them; ``--trace 1`` runs every
replicate twice, once under the tracer and once without it (alternating
which goes first), and reports the per-layer metrics plus the tracing
overhead.  Both modes check every replicate's output (see workloads.py)
and exit non-zero on a mismatch.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name with its
unit, and a fuller result (provenance, sample counts, failure reasons)
is written under ``bench/out/``.
"""

import os

# must precede the first numpy import, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("typeone-gmm", "typeone-mr", "fit-em", "fit-mr-clime")
#: set-ups measured per --trace 0 run; setup_s is their median
SETUP_PROBES = {"full": 5, "tiny": 2}
PROBE_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "replicates_per_ctl": "1/ctl",
    "replicate_ctl_p50": "ctl",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: samples that must lie beyond a percentile before it is reported
TAIL_SAMPLES = 10
#: the control kernel runs after the first replicate that ends this long
#: after its previous run
CONTROL_EVERY_S = 0.25
CONTROL_ITERATIONS = 60_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every dataset, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, warm up, print the clock, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_modules():
    """Import the package from ``src/`` and the benchmark's own modules."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing
        import workloads
    except ModuleNotFoundError as exc:
        sys.exit(f"bench/run.py: cannot import the truncem package from {ROOT / 'src'}: {exc}")
    return workloads, tracing


def warm_up(workloads, workload):
    for r in workload.warmup_indices():
        try:
            workloads.run_replicate(workload, r)
        except RuntimeError:
            pass  # the timed loop runs this replicate again and records it


def control_kernel():
    """Fixed pure-Python work that shares no code with truncem.

    The host's speed drifts by up to a third over tens of seconds; the
    control's time drifts with it, so replicate times divided by the
    control's median time in the same run stay comparable across runs.
    """
    total = 0
    for i in range(CONTROL_ITERATIONS):
        total += i * i
    return total


def timed_replicate(workloads, workload, r, capture):
    """Run replicate r; returns (duration in ns, record)."""
    start = time.perf_counter_ns()
    try:
        raw = workloads.run_replicate(workload, r)
    except RuntimeError as exc:
        # DegenerateInformationError, LpInfeasibleError, LpUnboundedError
        # and HiGHS failures all derive from RuntimeError
        return time.perf_counter_ns() - start, workloads.failure_record(exc)
    elapsed = time.perf_counter_ns() - start
    return elapsed, workloads.make_record(workload, r, raw, capture)


@dataclass
class Observations:
    """What one timed loop saw."""

    tracer: object = None
    plain_ns: list = field(default_factory=list)  # (ns, failed) per untraced replicate
    traced_ns: list = field(default_factory=list)  # (ns, failed) per traced replicate
    reasons: Counter = field(default_factory=Counter)  # failures by reason
    control_ns: list = field(default_factory=list)  # control kernel durations
    degenerate_traced: int = 0
    wall_s: float = 0.0  # loop time, control kernel excluded
    peak_rss_mb: float = 0.0

    @property
    def attempted(self):
        return len(self.plain_ns) + len(self.traced_ns)

    @property
    def failed(self):
        return sum(self.reasons.values())


def run_loop(workloads, workload, capture, check, seconds, tracer):
    """Closed loop for ``seconds``.  With a tracer, each replicate runs
    untraced and traced, alternating which goes first."""
    obs = Observations(tracer)
    r = 0
    start = time.perf_counter()
    deadline = start + seconds
    next_control = start
    while True:
        modes = (False,) if tracer is None else ((False, True) if r % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.install()
                tracer.begin_replicate(r)
            elapsed, rec = timed_replicate(workloads, workload, r, capture)
            if traced:
                tracer.uninstall()
                tracer.end_replicate()
                obs.degenerate_traced += rec["status"] == "degenerate"
            failed = rec["status"] != "ok"
            (obs.traced_ns if traced else obs.plain_ns).append((elapsed, failed))
            if failed:
                obs.reasons[rec["status"] + (f": {rec['reason']}" if "reason" in rec else "")] += 1
            check(r, rec)
        r += 1
        if time.perf_counter() >= next_control:
            t0 = time.perf_counter_ns()
            control_kernel()
            obs.control_ns.append(time.perf_counter_ns() - t0)
            next_control = time.perf_counter() + CONTROL_EVERY_S
        if time.perf_counter() >= deadline:
            break
    obs.wall_s = time.perf_counter() - start - sum(obs.control_ns) / 1e9
    obs.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return obs


def latency_ms(samples):
    """Durations in ms, failed replicates ranked slower than any success."""
    ok = sorted(ns / 1e6 for ns, failed in samples if not failed)
    return ok + [math.inf] * (len(samples) - len(ok))


def percentile(sorted_ms, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(math.ceil(q * len(sorted_ms)), 1)
    return sorted_ms[rank - 1], len(sorted_ms) - rank


def measure_setup(args):
    """Median over fresh processes of interpreter start to the end of
    warm-up, i.e. to where the first timed replicate would begin."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"bench/run.py: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples), samples


def git_sha():
    """HEAD's commit id, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_runtime():
    """Each OpenBLAS library loaded in this process, with its build
    configuration and the thread count it reports."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": pathlib.Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def provenance(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": blas_runtime(),
                 "env": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "client": "closed loop, one client",
    }


def end_to_end(obs, setup):
    """(metrics, units, extra) of a run with tracing off.

    Replicate time is reported in ``ctl``, the median duration of the
    control kernel in the same run; the raw wall-clock figures go to
    ``extra``.
    """
    lat = latency_ms(obs.plain_ns)
    n = len(lat)
    p50 = statistics.median(lat)
    p90, beyond = percentile(lat, 0.9)
    ctl_ms = statistics.median(obs.control_ns) / 1e6
    metrics = {
        "replicates_per_ctl": n / (obs.wall_s * 1e3 / ctl_ms),
        "replicate_ctl_p50": p50 / ctl_ms,
        "setup_s": setup[0],
        "peak_rss_mb": obs.peak_rss_mb,
    }
    extra = {
        "replicates_per_s": n / obs.wall_s,
        "replicate_ms_p50": p50,
        "replicate_ms_p90": p90 if beyond >= TAIL_SAMPLES else None,
        "samples": n,
        "samples_beyond_p90": beyond,
        "failed_frac": obs.failed / n,
        "control_ms_p50": ctl_ms,
        "control_samples": len(obs.control_ns),
        "setup_samples_s": setup[1],
        "replicate_ms_in_order": [ns / 1e6 for ns, _ in obs.plain_ns],
    }
    return metrics, END_TO_END_UNITS, extra


def layer_metrics(obs, tracing):
    """(metrics, units, extra) of a traced run."""
    traced = [ns for ns, failed in obs.traced_ns if not failed]
    plain = [ns for ns, failed in obs.plain_ns if not failed]
    metrics = obs.tracer.layer_metrics(obs.degenerate_traced)
    metrics["tracing_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["traced_replicates"] = len(obs.tracer.replicates)
    units = {**tracing.LAYER_UNITS, "tracing_overhead_frac": "frac", "traced_replicates": "count"}
    return metrics, units, {}


def report(args, workloads, obs, check, metrics, units, extra):
    """Write the full result under bench/out/ and print the metrics, the
    check and the provenance, then the result line."""
    prov = provenance(args)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.size == "tiny" else "")
    if obs.tracer is not None:
        spans_path = OUT_DIR / f"spans-{tag}.json"
        obs.tracer.write(spans_path)
        extra["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    measured = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    summary = {"replicates_checked": check.checked, "compared_with_reference": check.compared,
               "rel_tol": workloads.REL_TOL, "abs_tol": workloads.ABS_TOL,
               "errors": check.errors[:20], "error_count": len(check.errors)}
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": prov, "metrics": measured, "extra": extra,
                   "failures": obs.reasons, "check": summary,
                   "attempted": obs.attempted, "failed": obs.failed}, fh, indent=1)

    for key, value in metrics.items():
        print(f"{key:44s} {value!r} {units[key]}")
    if "samples" in extra:
        n, p90 = extra["samples"], extra["replicate_ms_p90"]
        print(f"{'replicates_per_s':44s} {extra['replicates_per_s']!r} 1/s")
        print(f"{'replicate_ms_p50':44s} {extra['replicate_ms_p50']!r} ms ({n} samples)")
        print(f"{'control_ms_p50':44s} {extra['control_ms_p50']!r} ms "
              f"({extra['control_samples']} samples)")
        print(f"{'replicate_ms_p90':44s} "
              + (f"{p90!r} ms" if p90 is not None else "not reported")
              + f" ({n} samples, {extra['samples_beyond_p90']} beyond p90; "
              f"reported when at least {TAIL_SAMPLES})")
        print(f"{'failed_frac':44s} {extra['failed_frac']!r} frac "
              f"({obs.failed} of {n} replicates)")
        print(f"{'setup_s samples':44s} {extra['setup_samples_s']}")
    for reason, count in obs.reasons.items():
        print(f"failure: {count} x {reason}")
    print(f"output check: {check.checked} replicates against the invariants, {check.compared} "
          f"against the reference (rel_tol {workloads.REL_TOL}, abs_tol {workloads.ABS_TOL}): "
          + ("OK" if not check.errors else f"{len(check.errors)} MISMATCHES"), flush=True)
    for line in check.errors[:20]:
        print(f"  {line}", file=sys.stderr, flush=True)
    print("provenance: " + json.dumps(prov))
    print(json.dumps({"correct": not check.errors, "attempted": obs.attempted,
                      "failed": obs.failed, "metrics": measured}))


def main(argv=None):
    args = parse_args(argv)
    workloads, tracing = load_modules()
    workload = workloads.make_workload(args.workload, args.seed, tiny=args.size == "tiny")
    capture = workloads.install_capture()
    warm_up(workloads, workload)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    check = workloads.OutputCheck(workload)
    obs = run_loop(workloads, workload, capture, check, args.seconds,
                   tracing.Tracer() if args.trace else None)
    if sum(failed for _, failed in obs.plain_ns) * 2 >= len(obs.plain_ns):
        sys.exit(f"bench/run.py: {obs.failed} of {obs.attempted} replicates failed: "
                 f"{dict(obs.reasons)}")
    if args.trace:
        metrics, units, extra = layer_metrics(obs, tracing)
    else:
        metrics, units, extra = end_to_end(obs, measure_setup(args))
    report(args, workloads, obs, check, metrics, units, extra)
    return 1 if check.errors else 0


if __name__ == "__main__":
    sys.exit(main())
