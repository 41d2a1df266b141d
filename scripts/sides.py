"""What the benchmark scripts share when they run a baseline checkout and
this one side by side: the child environment, the alternating rounds,
quartiles, the source digest, the provenance block and the
``bench/run.py`` call.

Importing this module changes neither ``os.environ`` nor ``sys.path``
and imports neither numpy nor the package, so a script that measures
fresh processes keeps its own footprint, which a child's ``ru_maxrss``
starts from, small.
"""

import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version

ROOT = pathlib.Path(__file__).resolve().parent.parent
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def child_env(src):
    """This process's environment for a child that imports the package
    from ``src`` alone, with BLAS on one thread.  It drops
    ``PYTHONDONTWRITEBYTECODE``, so that the untimed run of a side leaves
    compiled bytecode for its timed runs."""
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def alternate(run, sides, rounds, report=None):
    """``{side: [run(side) of each round]}``.  Each side first runs once
    untimed; then the sides run in the given order in even rounds and in
    reverse in odd ones.  ``report(r, samples)`` follows each round."""
    for side in sides:
        run(side)
    samples = {side: [] for side in sides}
    for r in range(rounds):
        for side in sides if r % 2 == 0 else sides[::-1]:
            samples[side].append(run(side))
        if report:
            report(r, samples)
    return samples


def quartiles(values):
    """Median and quartiles (inclusive method); one value is all three."""
    if len(values) == 1:
        return dict.fromkeys(("p50", "q1", "q3"), values[0])
    q1, p50, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p50": p50, "q1": q1, "q3": q3}


def src_digest(src):
    """sha256 over the package sources under ``src``, as ``bench/run.py``'s
    ``src_digest`` hashes its checkout's."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src.parent).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def committed_sha():
    """HEAD's commit id if the sources under ``src`` are HEAD's, else
    None, so that a run on an uncommitted tree names no commit."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", "src")
    if head.returncode or status.returncode or status.stdout:
        return None
    return head.stdout.strip()


def provenance(*packages, **extra):
    """The commit and sources measured, the host, the interpreter, the
    versions of ``packages``, then ``extra``."""
    return {"git_sha": committed_sha(), "src_sha256": src_digest(ROOT / "src"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            **{name: version(name) for name in packages},
            "platform": platform.platform(), **extra}


def run_bench(checkout, workload, seed, seconds, trace):
    """The result line of one ``bench/run.py`` run from ``checkout``;
    exits non-zero if the run fails or reads ``correct: false``."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=child_env(checkout / "src"),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout} {workload}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout} {workload}: outputs disagree with bench/reference/")
    return result
