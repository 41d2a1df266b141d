"""Which statements of the package no caller reaches, by line-tracing one cycle (at
least 4 replicates) of each benchmark workload at seed 0, the five commands on a
small config and ``fit --data`` per model; prints per module the function-body
statements no run reached, ``raise`` ones marked.  ``python scripts/src_traffic.py``"""

import ast
import contextlib
import io
import pathlib
import sys
import tempfile
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SMALL = "--d 16 --n 60 --s-star 2 --alpha-index 5 --T 3".split()
COMMANDS = ["trace --model RMC", "fit --model MR", "infer --model MR",
            "typeone --model GMM --replicates 4", "scaling --model GMM --s-star-grid 2"
            " --n-grid 60 --scaling-replicates 2 --scaling-d 16"]


def statements(tree):
    # first line -> (own lines, is a raise); a compound statement owns its header
    out = {}
    for fn in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
        for n in (n for top in fn.body[ast.get_docstring(fn) is not None:]
                  for n in ast.walk(top) if isinstance(n, ast.stmt)):
            end = max(n.body[0].lineno - 1 if hasattr(n, "body") else n.end_lineno, n.lineno)
            out[n.lineno] = range(n.lineno, end + 1), isinstance(n, ast.Raise)
    return out


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from truncem import cli, datagen

    paths = {str(p): p.name for p in sorted((ROOT / "src" / "truncem").glob("*.py"))}
    tmp, commands, hit, totals = tempfile.TemporaryDirectory(), [], defaultdict(set), Counter()
    for m in datagen.MODEL_TAGS:
        spec = datagen.GenSpec(m, 60, 16, datagen.make_beta_star(16, (4, 4)), 1.0, seed=0)
        datagen.dataset_to_csv(datagen.gen_dataset(spec), f"{tmp.name}/{m}.csv")
        commands.append(["fit", "--model", m, "--data", f"{tmp.name}/{m}.csv"])

    def line(frame, event, arg):
        if frame.f_code.co_filename in paths:
            hit[frame.f_code.co_filename].add(frame.f_lineno)
            return line

    sys.settrace(line)
    for w in (workloads.make_workload(name, 0) for name in workloads.WORKLOADS):
        for r in range(max(4, len(w.cycle))):
            workloads.run_replicate(w, r)
    with tmp, contextlib.redirect_stdout(io.StringIO()):
        for command in [c.split() for c in COMMANDS] + commands:
            cli.main(command + SMALL)  # a dataset sets its own d and n
    sys.settrace(None)
    for file, name in paths.items():
        lines = pathlib.Path(file).read_text().splitlines()
        stmts = statements(ast.parse("\n".join(lines)))
        missed = {n: r for n, (own, r) in stmts.items() if hit[file].isdisjoint(own)}
        totals.update(stmts=len(stmts), missed=len(missed), raises=sum(missed.values()))
        print(f"{name}: {len(missed)} of {len(stmts)} statements unreached")
        for n, r in sorted(missed.items()):
            print(f"  {n:4d} {'raise' if r else '     '} {lines[n - 1].strip()}")
    print("total: {missed} of {stmts} unreached, {raises} raise".format_map(totals))


if __name__ == "__main__":
    main()
