"""Experiment pipelines: iterate traces, error scaling, type-I error
Monte Carlo, and single fit/infer runs.

Every pipeline is deterministic given its config: replicate r draws its
dataset from seed ``base_seed + r`` and its initialization from an
independent child stream of the same seed, so results do not depend on
the order in which replicates are executed.
"""

import csv
import json
import math
import numbers
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .datagen import (MODEL_TAGS, GenSpec, dataset_from_csv, gen_dataset, make_beta_star,
                      make_init)
from .em import EXACT, GRADIENT, EmConfig, resample_block, run_em
from .errors import DegenerateInformationError, UnsupportedOperationError
from .inference import InferenceConfig, score_test, wald_test
from .models import MissingCovariateRegression

#: default initialization distance, as a fraction of ||beta*||, per model
#: (half the basin radius fraction suggested by the local-convergence
#: theory: kappa = 1/4 for the Gaussian mixture, 1/32 for mixture of
#: regression; missing-covariate regression reuses the mixture value)
DEFAULT_REL_ERR = {"GMM": 0.125, "MR": 1.0 / 64.0, "RMC": 0.125}
DEFAULT_SIGMA = {"GMM": 1.0, "MR": 0.1, "RMC": 1.0}
DEFAULT_M_STEP = {"GMM": "exact", "MR": "gradient", "RMC": "gradient"}
BETA_VALUE_CYCLE = (4.0, 4.0, 4.0, 6.0, 6.0)
#: the test columns of a type-I record, in CSV order; blank for a
#: degenerate replicate
_TEST_KEYS = ("score_stat", "score_p", "score_reject", "wald_stat", "wald_p",
             "wald_reject", "ci_lo", "ci_hi")
#: what an int or a float config field admits besides its own type
_KINDS = {int: numbers.Integral, float: numbers.Real}


def _is_a(value, kind):
    """Whether ``value`` fits the field annotation ``kind``: ``T``,
    ``tuple[T, ...]`` or ``T | None``; only a bool field takes a bool."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(_is_a(v, args[0]) for v in value)
    if args:
        return value is None or _is_a(value, args[0])
    if kind is bool:
        return isinstance(value, bool)
    return isinstance(value, _KINDS.get(kind, kind)) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment command.

    ``None`` fields are filled by ``resolve`` with model-dependent
    defaults; the resolved config is echoed into every output for
    provenance.
    """

    model: str = "GMM"
    d: int = 256
    n: int = 100
    s_star: int = 5
    s_hat: int | None = None
    sigma: float | None = None
    p_missing: float = 0.1
    m_step: str | None = None
    eta: float = 1.0
    n_iter: int = 10
    lam: float | None = None
    delta: float = 0.05
    alpha_index: int = 9
    replicates: int = 500
    seed: int = 0
    rel_err: float | None = None
    beta_values: tuple[float, ...] | None = None
    resample: bool = False
    s_star_grid: tuple[int, ...] = (2, 4, 6, 8)
    n_grid: tuple[int, ...] = (200, 400, 800)
    scaling_replicates: int = 20
    scaling_d: int = 128
    out: str | None = None
    data_csv: str | None = None

    def resolve(self, command=None):
        """Fill the model-dependent defaults and reject, before any data is
        drawn or loaded, every value not of its field's type and every
        setting ``command`` cannot run; ``alpha_index`` only where it is
        tested.  ``scaling`` checks only what its grid uses: its cells have
        d = ``scaling_d``, so ``d``, ``s_star`` and ``s_hat`` are not
        checked.  With no command, the settings of a fit are checked."""
        for field in fields(self):
            value, kind = getattr(self, field.name), field.type
            if not _is_a(value, kind):
                kind = kind.__name__ if isinstance(kind, type) else kind
                raise ValueError(f"{field.name} must be {kind}; got {value!r}")
        if self.data_csv is not None and command in ("trace", "scaling", "typeone"):
            raise ValueError(
                f"{command} generates its own data; data_csv is not supported"
            )
        for key in ("replicates", "scaling_replicates", "s_star_grid", "n_grid"):
            values = np.ravel(getattr(self, key))
            if not (values.size and (values >= 1).all()):
                raise ValueError(f"{key} must be >= 1 (a grid needs an entry)")
        # the tests' settings, which InferenceConfig checks; alpha_index is
        # checked against d below, for a command that tests a coordinate
        InferenceConfig(alpha_index=0, lam=self.lam, delta=self.delta)
        if self.model not in MODEL_TAGS:
            raise ValueError(f"model must be one of {', '.join(MODEL_TAGS)}; "
                             f"got {self.model!r}")
        if self.m_step not in (None, EXACT, GRADIENT):
            raise ValueError(f"m_step must be {EXACT} or {GRADIENT}; got {self.m_step!r}")
        if self.sigma is None:
            self.sigma = DEFAULT_SIGMA[self.model]
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.m_step is None:
            self.m_step = DEFAULT_M_STEP[self.model]
        if self.s_hat is None:
            self.s_hat = self.s_star
        if self.rel_err is None:
            self.rel_err = DEFAULT_REL_ERR[self.model]
        if self.beta_values is None:
            self.beta_values = default_beta_values(self.s_star)
        if not 0 <= self.rel_err < np.inf:
            raise ValueError("rel_err must be nonnegative")
        scaling = command == "scaling"
        _em_config(self, min(self.s_star_grid) if scaling else self.s_hat)
        if self.resample and self.data_csv is None:
            resample_block(min(self.n_grid) if scaling else self.n, self.n_iter)
        if scaling:
            if max(self.s_star_grid) > self.scaling_d:
                raise ValueError(f"s_star_grid must be <= scaling_d = {self.scaling_d}")
        # an external dataset sets its own dimension, checked once loaded
        elif self.data_csv is None:
            if command in ("typeone", "infer"):
                _check_alpha_index(self.alpha_index, self.d)
            if max(self.s_star, self.s_hat) > self.d:
                raise ValueError(f"s_star and s_hat must be <= d = {self.d}")
        if command in ("typeone", "infer") and self.model == "RMC":
            raise UnsupportedOperationError("inference is not implemented for RMC")
        if self.m_step == EXACT and self.model == "RMC":
            raise UnsupportedOperationError(MissingCovariateRegression._NO_EXACT_M_STEP)
        if command == "typeone":
            value = make_beta_star(self.d, self.beta_values)[self.alpha_index]
            if value != 0.0:
                raise ValueError(
                    f"type-I experiment requires a null coordinate; "
                    f"beta_star[{self.alpha_index}] = {value}"
                )
        return self


def _check_alpha_index(alpha_index, d):
    if not 0 <= alpha_index < d:
        raise ValueError(f"alpha_index {alpha_index} out of range for d = {d}")


def default_beta_values(s_star):
    """Nonzero truth entries: the (4, 4, 4, 6, 6) pattern, cycled."""
    return tuple(BETA_VALUE_CYCLE[i % len(BETA_VALUE_CYCLE)] for i in range(s_star))


def init_stream(seed):
    """Child seed for the initialization draw, independent of the
    dataset stream seeded directly with ``seed``."""
    return np.random.SeedSequence(seed, spawn_key=(1,))


def sign_aligned_error(beta_hat, beta_star, tag):
    """l2 error after resolving the +-beta ambiguity of the mixtures."""
    err = np.linalg.norm(beta_hat - beta_star)
    if tag in ("GMM", "MR"):
        err = min(err, float(np.linalg.norm(beta_hat + beta_star)))
    return float(err)


def fit_replicate(cfg: ExperimentConfig, seed, *, tests_alpha=False):
    """Generate one dataset, or load ``cfg.data_csv``, and fit it by
    truncated EM from the seeded initialization around ``beta_star``;
    returns (model, trace, beta_star).  With ``tests_alpha``, a loaded
    dataset's dimension is checked against ``alpha_index`` before the fit."""
    if cfg.data_csv is None:
        beta_star = make_beta_star(cfg.d, cfg.beta_values)
        p_missing = cfg.p_missing if cfg.model == "RMC" else 0.0
        model = gen_dataset(GenSpec(model=cfg.model, n=cfg.n, d=cfg.d, beta_star=beta_star,
                                    sigma=cfg.sigma, p_missing=p_missing, seed=seed))
    else:
        model = dataset_from_csv(cfg.model, cfg.data_csv, sigma=cfg.sigma)
        if tests_alpha:
            _check_alpha_index(cfg.alpha_index, model.dim)
        beta_star = make_beta_star(model.dim, cfg.beta_values)
    init = make_init(beta_star, cfg.rel_err, init_stream(seed))
    return model, run_em(model, init, _em_config(cfg, cfg.s_hat)), beta_star


def _em_config(cfg: ExperimentConfig, s_hat):
    """The EM settings of ``cfg`` at truncation level ``s_hat``, which
    ``EmConfig`` checks."""
    return EmConfig(s_hat=s_hat, n_iter=cfg.n_iter, m_step=cfg.m_step, eta=cfg.eta,
                    resample=cfg.resample)


def run_trace(cfg: ExperimentConfig):
    """One fit; rows of (t, opt_error, est_error, loglik)."""
    cfg.resolve("trace")
    model, trace, beta_star = fit_replicate(cfg, cfg.seed)
    beta_final = trace.estimate
    rows = []
    for t, beta_t in enumerate(trace.iterates):
        rows.append(
            {
                "t": t,
                "opt_error": float(np.linalg.norm(beta_t - beta_final)),
                "est_error": sign_aligned_error(beta_t, beta_star, cfg.model),
                "loglik": model.loglik(beta_t),
            }
        )
    return rows


def run_scaling(cfg: ExperimentConfig):
    """Error-vs-rate grid: per-replicate rows plus per-cell mean rows."""
    cfg.resolve("scaling")
    rows = []
    for s_star in cfg.s_star_grid:
        for n in cfg.n_grid:
            cell = replace(
                cfg, d=cfg.scaling_d, n=n, s_star=s_star, s_hat=None, beta_values=None
            ).resolve("scaling")
            x = math.sqrt(s_star * math.log(cfg.scaling_d) / n)
            reps = []
            for r in range(cfg.scaling_replicates):
                _, trace, beta_star = fit_replicate(cell, cfg.seed + r)
                err = sign_aligned_error(trace.estimate, beta_star, cfg.model)
                reps.append({"kind": "rep", "s_star": s_star, "n": n, "replicate": r,
                             "x": x, "err": err})
            mean = float(np.mean([row["err"] for row in reps]))
            rows += reps + [dict(reps[0], kind="mean", replicate=-1, err=mean)]
    return rows


def _run_tests(cfg: ExperimentConfig, model, beta_hat):
    """Score and Wald tests of H0: beta[alpha_index] = 0.

    Returns ``(score, wald, None)``, or ``(None, None, reason)`` when the
    plug-in information is not positive.
    """
    icfg = InferenceConfig(alpha_index=cfg.alpha_index, lam=cfg.lam, delta=cfg.delta)
    try:
        return score_test(model, beta_hat, icfg), wald_test(model, beta_hat, icfg), None
    except DegenerateInformationError as exc:
        return None, None, str(exc)


def infer_replicate(cfg: ExperimentConfig, seed):
    """Fit one replicate and run both tests at the configured coordinate.

    Returns the per-replicate record used by the type-I pipeline; the
    ``degenerate`` flag marks replicates whose plug-in information was
    not positive.
    """
    model, trace, _ = fit_replicate(cfg, seed)
    sres, wres, reason = _run_tests(cfg, model, trace.estimate)
    if reason is None:
        values = (sres.statistic, sres.p_value, int(sres.reject),
                  wres.statistic, wres.p_value, int(wres.reject), wres.ci_lo, wres.ci_hi)
    else:
        values = ("",) * len(_TEST_KEYS)
    return {"replicate": None, "degenerate": int(reason is not None),
            **dict(zip(_TEST_KEYS, values))}


def run_typeone(cfg: ExperimentConfig):
    """Monte Carlo over generate -> fit -> test pipelines.

    Returns (rows, summary): per-replicate records and a summary dict
    with rejection rates over the non-degenerate replicates.
    """
    cfg.resolve("typeone")
    rows = []
    for r in range(cfg.replicates):
        record = infer_replicate(cfg, cfg.seed + r)
        record["replicate"] = r
        rows.append(record)
    valid = [row for row in rows if not row["degenerate"]]
    n_valid = len(valid)
    summary = {"replicates": cfg.replicates, "degenerate": cfg.replicates - n_valid}
    for test in ("score", "wald"):
        rejected = sum(row[f"{test}_reject"] for row in valid)
        summary[f"{test}_rejection_rate"] = rejected / n_valid if n_valid else None
    summary["config"] = asdict(cfg)
    return rows, summary


def run_fit(cfg: ExperimentConfig):
    """Single fit; JSON-ready summary with the estimate and trace."""
    cfg.resolve("fit")
    model, trace, beta_star = fit_replicate(cfg, cfg.seed)
    beta_hat = trace.estimate
    return {
        "beta_hat": [float(v) for v in beta_hat],
        "support": [int(j) for j in np.flatnonzero(beta_hat)],
        "n_iterations": len(trace.iterates) - 1,
        "final_loglik": model.loglik(beta_hat),
        "opt_errors": [
            float(np.linalg.norm(b - beta_hat)) for b in trace.iterates
        ],
        "est_error": sign_aligned_error(beta_hat, beta_star, cfg.model),
        "config": asdict(cfg),
    }


def run_infer(cfg: ExperimentConfig):
    """Single generate/load -> fit -> test run; JSON-ready result."""
    cfg.resolve("infer")
    model, trace, _ = fit_replicate(cfg, cfg.seed, tests_alpha=True)
    sres, wres, reason = _run_tests(cfg, model, trace.estimate)
    out = {"config": asdict(cfg), "degenerate": reason is not None}
    if reason is not None:
        out["error"] = reason
        return out
    for name, res in (("score", sres), ("wald", wres)):
        out[name] = {"statistic": res.statistic, "p_value": res.p_value,
                     "reject": bool(res.reject)}
    out["wald"].update(ci_lo=wres.ci_lo, ci_hi=wres.ci_hi, info_scalar=wres.info_scalar)
    return out


def write_csv(rows, path=None):
    """Write dict rows as CSV with round-trip float formatting, to ``path``
    or, when it is None, to standard output."""
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, float) else v
                 for v in (row[k] for k in header)]
            )

    _write(write, path, "CSV")


def write_json(obj, path=None):
    """Write ``obj`` as indented JSON to ``path`` or to standard output."""

    def write(fh):
        json.dump(obj, fh, indent=2)
        fh.write("\n")

    _write(write, path, "JSON")


def _write(write, path, kind):
    if path is None:
        write(sys.stdout)
        return
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise OSError(f"cannot write {kind} to {path}: {exc}") from exc
