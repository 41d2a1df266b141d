"""Outside-in tracing of the truncem layers.

The tracer replaces each traced function at the name its callers look it
up under (a module global or a model-class attribute) with a wrapper that
records a span, and puts the original back on ``uninstall``.  No file of
the package changes.  Spans carry a name, a start, an end, the id of the
span that was open when they started, and the id of the replicate they
belong to.  They stay in memory until the run ends.

Work that inspects what a layer returned (LP sizes, zero solutions,
feasibility of each decorrelation direction, EM support changes) runs in
``end_replicate``, after the replicate's root span has closed, so it is
not charged to any layer.
"""

import json
import time
from collections import Counter

import numpy as np

from truncem import em, harness, inference, lp, models

_MODEL_CLASSES = (
    models.GaussianMixture,
    models.MixtureRegression,
    models.MissingCovariateRegression,
)
MODEL_METHODS = ("m_step_exact", "m_step_gradient", "grad_q", "loglik", "curvature_matrix")

#: (owner, attribute, span name, keep call arguments and result)
TRACE_POINTS = [
    (harness, "infer_replicate", "harness.infer_replicate", False),
    (harness, "fit_replicate", "harness.fit_replicate", False),
    (harness, "gen_dataset", "datagen.gen_dataset", False),
    (harness, "make_init", "datagen.make_init", False),
    (harness, "run_em", "em.run_em", True),
    (harness, "score_test", "inference.score_test", False),
    (harness, "wald_test", "inference.wald_test", False),
    (em, "top_support", "sparsity.top_support", False),
    (em, "hard_truncate", "sparsity.hard_truncate", False),
    (inference, "dantzig_direction", "lp.dantzig_direction", True),
    (models, "clime_inverse", "lp.clime_inverse", True),
    (lp, "linprog", "lp.linprog", True),
] + [
    (cls, method, f"models.{method}", method == "curvature_matrix")
    for cls in _MODEL_CLASSES
    for method in MODEL_METHODS
]

#: span name -> prefix of the metrics its self time and calls count
#: toward, where that differs from the span name
_METRIC_BASE = {
    "harness.infer_replicate": "harness",
    "harness.fit_replicate": "harness",
    "lp.dantzig_direction": "lp.build",
    "lp.clime_inverse": "lp.build",
    "lp.linprog": "lp.solve",
}

#: every per-layer metric with its unit, in report order
LAYER_UNITS = {
    "harness.self_ms": "ms",
    "datagen.gen_dataset.calls": "count",
    "datagen.gen_dataset.self_ms": "ms",
    "datagen.make_init.self_ms": "ms",
    "em.run_em.self_ms": "ms",
    "em.iterations": "count",
    "em.support_changes": "count",
    **{
        f"models.{m}.{k}": unit
        for m in MODEL_METHODS
        for k, unit in (("calls", "count"), ("self_ms", "ms"))
    },
    "models.curvature_matrix.flops_computed": "flop",
    "sparsity.top_support.calls": "count",
    "sparsity.top_support.self_ms": "ms",
    "sparsity.hard_truncate.calls": "count",
    "sparsity.hard_truncate.self_ms": "ms",
    "inference.score_test.self_ms": "ms",
    "inference.wald_test.self_ms": "ms",
    "inference.degenerate": "frac",
    "inference.duplicate_solve_frac": "frac",
    "lp.build.self_ms": "ms",
    "lp.solve.calls": "count",
    "lp.solve.self_ms": "ms",
    "lp.solve.simplex_iters": "count",
    "lp.solve.rows": "count",
    "lp.solve.cols": "count",
    "lp.solve.nnz": "count",
    "lp.clime_columns": "count",
    "lp.failures": "count",
    "lp.zero_solution_frac": "frac",
    "lp.feasibility_violations": "count",
}


class Span:
    __slots__ = ("id", "parent", "replicate", "name", "start", "end", "payload", "attrs")

    def __init__(self, span_id, parent, replicate, name, start):
        self.id = span_id
        self.parent = parent
        self.replicate = replicate
        self.name = name
        self.start = start
        self.end = None
        self.payload = None
        self.attrs = None

    def as_row(self):
        return [self.id, self.parent, self.replicate, self.name, self.start, self.end,
                self.attrs]


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.replicates = []  # ids of the replicates traced, in order
        self.counts = Counter()  # counters summed over the traced replicates
        self._stack = []
        self._patches = []
        self._replicate = None
        self._first_span = 0

    # -- installing --------------------------------------------------------

    def install(self):
        for owner, attr, name, keep in TRACE_POINTS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, keep))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, keep):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1].id if stack else None,
                        self._replicate, name, clock())
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                span.payload = (args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- one replicate -------------------------------------------------------

    def begin_replicate(self, replicate_id):
        self._replicate = replicate_id
        self._first_span = len(self.spans)

    def end_replicate(self):
        """Read what each kept call returned, then drop the references."""
        spans = self.spans[self._first_span:]
        by_id = {s.id: s for s in spans}
        directions = []
        for span in spans:
            if span.payload is None:
                continue
            args, kwargs, out = span.payload
            span.payload = None
            if span.name == "em.run_em":
                supports = [tuple(s) for s in out.supports]
                span.attrs = {"em.iterations": len(supports),
                              "em.support_changes": sum(
                                  a != b for a, b in zip(supports, supports[1:]))}
            elif span.name == "models.curvature_matrix":
                model = args[0]
                span.attrs = {
                    "models.curvature_matrix.flops_computed": 2 * model.n_samples * model.dim**2}
            elif span.name == "lp.linprog":
                a_ub = kwargs["A_ub"]
                solved = int(out.status == 0)
                parent = by_id.get(span.parent)
                span.attrs = {"lp.solve.simplex_iters": int(out.nit),
                              "lp.solve.rows": a_ub.shape[0],
                              "lp.solve.cols": a_ub.shape[1],
                              "lp.solve.nnz": int(np.count_nonzero(a_ub)),
                              "lp.failures": 1 - solved,
                              "lp.solved": solved,
                              "lp.zero_solutions": int(solved and not np.any(out.x)),
                              "lp.clime_columns": int(parent is not None
                                                      and parent.name == "lp.clime_inverse")}
            elif span.name == "lp.dantzig_direction":
                t_mat, alpha, lam = args
                directions.append((t_mat, alpha, lam))
                span.attrs = {"lp.feasibility_violations": _dantzig_violation(t_mat, alpha, lam, out)}
            elif span.name == "lp.clime_inverse":
                span.attrs = {"lp.feasibility_violations": _clime_violations(args[0], args[1], out)}
            self.counts.update(span.attrs)
        if len(directions) >= 2 and all(_same_input(directions[0], d) for d in directions[1:]):
            self.counts["inference.duplicate_solve_frac"] += 1
        self.replicates.append(self._replicate)
        self._replicate = None

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self time of every span in ns: its duration minus the part of
        it that its children's intervals cover."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for span in self.spans:
            covered, reach = 0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def layer_metrics(self, degenerate):
        """Per-layer metrics, per traced replicate unless the unit is frac
        or the metric is an LP size; see README.md."""
        n_rep = max(len(self.replicates), 1)
        self_ns, calls = Counter(), Counter()
        for span, own in zip(self.spans, self.self_times()):
            base = _METRIC_BASE.get(span.name, span.name)
            self_ns[base] += own
            calls[base] += 1
        out = {}
        for name in LAYER_UNITS:
            base, _, field = name.rpartition(".")
            if field == "self_ms":
                out[name] = self_ns[base] / 1e6 / n_rep
            elif field == "calls":
                out[name] = calls[base] / n_rep
        counts, n_lp = self.counts, calls["lp.solve"]
        for key in ("lp.solve.rows", "lp.solve.cols", "lp.solve.nnz"):
            out[key] = counts[key] / n_lp if n_lp else 0.0
        for key in ("em.iterations", "em.support_changes", "lp.solve.simplex_iters",
                    "lp.clime_columns", "lp.failures", "inference.duplicate_solve_frac",
                    "models.curvature_matrix.flops_computed"):
            out[key] = counts[key] / n_rep
        out["lp.feasibility_violations"] = counts["lp.feasibility_violations"]
        solved = counts["lp.solved"]
        out["lp.zero_solution_frac"] = counts["lp.zero_solutions"] / solved if solved else 0.0
        out["inference.degenerate"] = degenerate / n_rep
        return {name: out[name] for name in LAYER_UNITS}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "replicate", "name", "start_ns", "end_ns",
                                   "attrs"],
                       "spans": [s.as_row() for s in self.spans]}, fh, separators=(",", ":"))


def _same_input(a, b):
    return a[1] == b[1] and a[2] == b[2] and np.array_equal(a[0], b[0])


def _dantzig_violation(t_mat, alpha, lam, w):
    """1 if ||T_ga - T_gg w||_inf exceeds lam + lp.FEAS_TOL, else 0."""
    keep = np.delete(np.arange(t_mat.shape[0]), alpha)
    resid = t_mat[keep, alpha] - t_mat[np.ix_(keep, keep)] @ w
    return int(np.max(np.abs(resid)) > lam + lp.FEAS_TOL)


def _clime_violations(sigma_hat, lam, theta):
    """Columns j with ||sigma_hat theta_j - e_j||_inf > lam + lp.FEAS_TOL."""
    resid = sigma_hat @ theta - np.eye(sigma_hat.shape[0])
    return int(np.sum(np.max(np.abs(resid), axis=0) > lam + lp.FEAS_TOL))
