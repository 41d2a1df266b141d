"""The package's public names and the scripts' imports."""

import os
import pathlib
import subprocess
import sys

import truncem

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_star_import_binds_exactly_all():
    names = truncem.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from truncem import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    for name in names:
        assert namespace[name] is getattr(truncem, name)


def test_every_script_imports():
    # each script runs its main only as __main__, so importing them all runs
    # nothing, and a name a script imports from src/ or tests/ that has gone
    # fails here
    scripts = sorted(path.stem for path in (ROOT / "scripts").glob("*.py"))
    assert scripts
    code = ("import importlib, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'scripts')!r})\n"
            f"for name in {scripts!r}:\n"
            "    importlib.import_module(name)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
