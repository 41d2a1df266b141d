#!/usr/bin/env python3
"""Start-up and footprint of the truncem commands, in fresh processes.

    python3 scripts/bench_startup.py [--baseline DIR] [--out BENCH_startup.json]

Each case runs in a new interpreter with BLAS pinned to one thread and
``PYTHONPATH`` set to the side's ``src`` alone:

- ``import truncem.cli``: the import of the command line, which every
  command pays before it parses its arguments;
- ``infer --model GMM`` and ``infer --model MR``: one fit and both tests
  at the command-line defaults (d=256, n=100, alpha_index 9);
- ``typeone --model GMM --replicates 500``: the type-I Monte Carlo of
  acceptance criterion 3.

A command runs as the ``truncem`` console script does, ``main`` from
``truncem.cli`` on its arguments, with standard output discarded.  Per
process the script records the wall time from start to exit, the peak
resident set (``ru_maxrss`` of that child, from ``os.wait4``), the
number of modules in ``sys.modules`` at exit and how many of those are
``scipy`` or ``scipy.*`` (none on a command path, so a change that
brings scipy back shows here).  A child's ``ru_maxrss``
also counts the resident set it was started from, this script's, so
the script imports neither numpy nor scipy: its own footprint
(``script_peak_rss_mb``), below every figure reported, is the floor of
the measurement.  Each case reports the
median and quartiles of the first two over ``ROUNDS`` rounds (the
module counts do not vary).

``--baseline DIR`` runs every case on the checkout at DIR as well (for
instance the parent commit), taking turns with this tree at going first
in each round, as ``scripts/bench_lp.py`` does.  The case then reports
the ratios of the medians (baseline over this tree, so above 1 means
this tree is faster or smaller) and in how many rounds this tree's
process was the faster and the smaller of the pair.

The ``budget`` rows time, on this tree's interpreter only, each in a
fresh process, ``numpy``, which the commands are built on, and then
``scipy.special``, ``scipy.linalg`` or ``scipy.optimize`` on top of it:
what a command would pay if its path imported one of them (only the LP
fallback imports ``scipy.optimize``).

One untimed run of every case and side precedes the rounds, so both
sides read compiled bytecode: children run without
``PYTHONDONTWRITEBYTECODE``, which would leave a side with no bytecode
cache compiling every module in every round.

The provenance names HEAD's commit (``git_sha``) only when the sources
under ``src`` are HEAD's; otherwise it is null and ``src_sha256`` alone
identifies the tree measured.
"""

import os

# must precede the first numpy import, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib.metadata import version  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import git_sha, src_digest  # noqa: E402

#: timed runs of every case and side, after one untimed run
ROUNDS = 10
#: case name -> the arguments of ``truncem.cli.main``, or None to import only
CASES = {
    "import truncem.cli": None,
    "infer --model GMM": ["infer", "--model", "GMM"],
    "infer --model MR": ["infer", "--model", "MR"],
    "typeone --model GMM --replicates 500": ["typeone", "--model", "GMM",
                                             "--replicates", "500"],
}
#: budget row -> the modules it imports
BUDGET = {
    "numpy": ("numpy",),
    "numpy + scipy.special": ("numpy", "scipy.special"),
    "numpy + scipy.linalg": ("numpy", "scipy.linalg"),
    "numpy + scipy.optimize": ("numpy", "scipy.optimize"),
}
#: every child writes its module counts last, on standard error: all, then scipy's
_COUNT = ("import sys\nscipy = sum(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
          "sys.stderr.write(f'\\nmodules {len(sys.modules)} {scipy}\\n')\n")


def command_code(args):
    """The child's program: the console script's import and call."""
    call = "" if args is None else f"main({args!r})\n"
    return "from truncem.cli import main\n" + call + _COUNT


def import_code(modules):
    return "".join(f"import {name}\n" for name in modules) + _COUNT


def run_child(code, src):
    """(wall seconds, peak RSS in MiB, modules loaded, scipy modules
    loaded) of one fresh interpreter running ``code`` with ``src`` as its
    only path entry."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        err = child.stderr.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        child.stderr.close()
    elapsed = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    if child.returncode != 0 or "\nmodules " not in err:
        sys.exit(f"child failed ({child.returncode}):\n{err}")
    modules, scipy = map(int, err.rsplit("\nmodules ", 1)[1].split())
    return elapsed, usage.ru_maxrss / 1024.0, modules, scipy


def committed_sha():
    """HEAD's commit id if the package sources are HEAD's, else None, so
    that a run on an uncommitted tree names no commit."""
    sha = git_sha()
    if sha is None:
        return None
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                            capture_output=True, text=True)
    return sha if status.returncode == 0 and not status.stdout else None


def tree_digest(src):
    """sha256 over the package sources under ``src``, as ``src_digest``
    hashes this tree's."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src.parent).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def quartiles(values):
    q1, p50, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p50": p50, "q1": q1, "q3": q3}


def summarize(samples):
    walls, rss, modules, scipy = zip(*samples)
    return {"wall_s": quartiles(walls), "peak_rss_mb": quartiles(rss),
            "modules": statistics.median_low(modules),
            "scipy_modules": statistics.median_low(scipy)}


def bench_case(code, sides):
    """Run one case on every side ``ROUNDS`` times after a warm-up,
    alternating which side goes first; returns the case's row."""
    names = list(sides)
    for name in names:
        run_child(code, sides[name])
    samples = {name: [] for name in names}
    for r in range(ROUNDS):
        for name in names if r % 2 == 0 else names[::-1]:
            samples[name].append(run_child(code, sides[name]))
    row = {name: summarize(samples[name]) for name in names}
    if "baseline" in sides:
        this, base = samples["this"], samples["baseline"]
        row["wall_ratio_p50"] = (row["baseline"]["wall_s"]["p50"]
                                 / row["this"]["wall_s"]["p50"])
        row["rss_ratio_p50"] = (row["baseline"]["peak_rss_mb"]["p50"]
                                / row["this"]["peak_rss_mb"]["p50"])
        row["rounds_this_faster"] = sum(t[0] < b[0] for t, b in zip(this, base))
        row["rounds_this_smaller"] = sum(t[1] < b[1] for t, b in zip(this, base))
    return row


def line(name, row):
    this = row["this"]
    text = (f"{name}: {this['wall_s']['p50']:.3f} s, {this['peak_rss_mb']['p50']:.1f} MiB, "
            f"{this['modules']} modules ({this['scipy_modules']} scipy)")
    if "baseline" in row:
        base = row["baseline"]
        text += (f"; baseline {base['wall_s']['p50']:.3f} s, "
                 f"{base['peak_rss_mb']['p50']:.1f} MiB, {base['modules']} modules "
                 f"({base['scipy_modules']} scipy); "
                 f"{row['wall_ratio_p50']:.2f}x time, {row['rss_ratio_p50']:.2f}x RSS")
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", metavar="DIR",
                        help="a checkout whose commands to run in every round as well")
    parser.add_argument("--out", default=str(ROOT / "BENCH_startup.json"))
    args = parser.parse_args(argv)
    sides = {"this": ROOT / "src"}
    if args.baseline:
        sides["baseline"] = pathlib.Path(args.baseline).resolve() / "src"
        if not (sides["baseline"] / "truncem" / "cli.py").is_file():
            sys.exit(f"--baseline: no truncem package under {sides['baseline']}")
    rows = {}
    for name, cli_args in CASES.items():
        rows[name] = bench_case(command_code(cli_args), sides)
        print(line(name, rows[name]), flush=True)
    budget = {}
    for name, modules in BUDGET.items():
        budget[name] = bench_case(import_code(modules), {"this": ROOT / "src"})
        print(line(name, budget[name]), flush=True)
    out = {
        "provenance": {
            "git_sha": committed_sha(),
            "src_sha256": src_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "platform": platform.platform(),
            "script_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rounds": ROUNDS,
            **({"baseline_src_sha256": tree_digest(sides["baseline"])}
               if args.baseline else {}),
        },
        "cases": rows,
        "budget": budget,
    }
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
