"""The benchmark tracer's contract with the package.

``bench/tracing.py`` wraps functions at the names their callers look
them up under.  A refactor that moves one of them breaks the benchmark's
per-layer metrics silently; these tests catch it in tier-1.
"""

import importlib.util
from pathlib import Path

from truncem import harness

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_one_replicate_and_uninstalls():
    tracing = load_tracing()
    # getattr raises if a refactor moved a traced name
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACE_POINTS]
    assert all(callable(fn) for fn in originals)

    # the GMM replicate certifies w = 0 from one curvature column; the MR
    # replicate builds the curvature matrix and solves the LP
    configs = [harness.ExperimentConfig(model=model, d=16, n=40, s_star=2,
                                        alpha_index=5).resolve()
               for model in ("GMM", "MR")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for replicate, cfg in enumerate(configs):
            tracer.begin_replicate(replicate)
            harness.infer_replicate(cfg, 0)
            tracer.end_replicate()
    finally:
        tracer.uninstall()

    names = [{span.name for span in tracer.spans if span.replicate == r} for r in (0, 1)]
    common = {"harness.infer_replicate", "em.run_em", "inference.score_test",
              "inference.wald_test"}
    assert common <= names[0]
    assert not {"models.curvature_matrix", "lp.dantzig_direction"} & names[0]
    assert common | {"models.curvature_matrix", "lp.dantzig_direction"} <= names[1]
    assert tracer.replicates == [0, 1]
    restored = [getattr(owner, attr) for owner, attr, _, _ in tracing.TRACE_POINTS]
    assert all(now is before for now, before in zip(restored, originals))
