"""The runner the benchmark scripts share, ``scripts/sides.py``, with a fake
run function in place of a child process."""

import importlib.util
import os
import sys

import pytest
import sides


def test_alternate_warms_up_each_side_once_then_takes_turns():
    calls = []

    def run(side):
        calls.append(side)
        return len(calls)

    samples = sides.alternate(run, ("baseline", "change"), 3)
    # one untimed run of each side, then baseline first in even rounds
    assert calls == ["baseline", "change",
                     "baseline", "change", "change", "baseline", "baseline", "change"]
    assert samples == {"baseline": [3, 6, 7], "change": [4, 5, 8]}


def test_alternate_reports_after_every_round():
    seen = []
    sides.alternate(lambda side: side, ("a", "b"), 2,
                    lambda r, samples: seen.append((r, {k: list(v) for k, v in samples.items()})))
    assert seen == [(0, {"a": ["a"], "b": ["b"]}), (1, {"a": ["a", "a"], "b": ["b", "b"]})]


def test_child_env_pins_blas_sets_the_path_and_writes_bytecode(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    env = sides.child_env(tmp_path / "src")
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert "PYTHONDONTWRITEBYTECODE" not in env
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[var] == "1"
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"  # the caller's own is kept


def test_import_leaves_the_environment_and_path_alone():
    environ, path = dict(os.environ), list(sys.path)
    spec = importlib.util.spec_from_file_location("sides_fresh", sides.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == environ and sys.path == path


@pytest.mark.parametrize("values, expected", [
    ([2.0], {"p50": 2.0, "q1": 2.0, "q3": 2.0}),
    ([1.0, 2.0, 3.0, 4.0, 5.0], {"p50": 3.0, "q1": 2.0, "q3": 4.0}),
])
def test_quartiles_take_one_value_or_more(values, expected):
    assert sides.quartiles(values) == expected


def test_src_digest_is_the_benchmarks(monkeypatch):
    for var in sides.ONE_THREAD:  # bench/run.py pins these at import
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_run", sides.ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert sides.src_digest(sides.ROOT / "src") == run.src_digest()
