import csv
import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from truncem.cli import main
from truncem.errors import UnsupportedOperationError
from truncem.harness import (
    ExperimentConfig,
    default_beta_values,
    infer_replicate,
    run_fit,
    run_infer,
    run_scaling,
    run_trace,
    run_typeone,
    sign_aligned_error,
    write_csv,
)

SMALL = dict(d=16, n=60, s_star=2, alpha_index=5)


def small_cfg(**overrides):
    settings = dict(SMALL)
    settings.update(overrides)
    return ExperimentConfig(**settings)


# ---------------------------------------------------------------------------
# config resolution


def test_config_defaults_resolved():
    cfg = ExperimentConfig(model="MR").resolve()
    assert cfg.sigma == 0.1
    assert cfg.m_step == "gradient"
    assert cfg.s_hat == cfg.s_star
    assert cfg.rel_err == pytest.approx(1 / 64)
    assert cfg.beta_values == (4, 4, 4, 6, 6)


def test_default_beta_values_cycle():
    assert default_beta_values(7) == (4, 4, 4, 6, 6, 4, 4)
    assert default_beta_values(2) == (4, 4)


def test_sign_aligned_error():
    a = np.array([1.0, -1.0])
    assert sign_aligned_error(-a, a, "GMM") == pytest.approx(0.0)
    assert sign_aligned_error(-a, a, "RMC") == pytest.approx(
        2 * np.linalg.norm(a)
    )


# ---------------------------------------------------------------------------
# pipelines


def test_trace_zero_iterations_single_row():
    rows = run_trace(small_cfg(model="GMM", n_iter=0))
    assert len(rows) == 1
    assert rows[0]["t"] == 0
    assert rows[0]["opt_error"] == 0.0


def test_trace_rows_shape():
    rows = run_trace(small_cfg(model="GMM", n_iter=4))
    assert [row["t"] for row in rows] == [0, 1, 2, 3, 4]
    assert rows[-1]["opt_error"] == 0.0
    assert all(row["est_error"] >= 0 for row in rows)


def test_fit_zero_iterations_returns_truncated_init():
    cfg = small_cfg(model="GMM", n_iter=0)
    out = run_fit(cfg)
    from truncem.datagen import make_beta_star, make_init
    from truncem.harness import init_stream
    from truncem.sparsity import hard_truncate, top_support

    beta_star = make_beta_star(cfg.d, cfg.beta_values)
    init = make_init(beta_star, cfg.rel_err, init_stream(cfg.seed))
    expect = hard_truncate(init, top_support(init, cfg.s_hat))
    assert out["beta_hat"] == [float(v) for v in expect]
    assert out["n_iterations"] == 0


def test_scaling_single_cell_row_count():
    cfg = small_cfg(
        model="GMM",
        s_star_grid=(2,),
        n_grid=(60,),
        scaling_replicates=3,
        scaling_d=16,
        n_iter=3,
    )
    rows = run_scaling(cfg)
    reps = [r for r in rows if r["kind"] == "rep"]
    means = [r for r in rows if r["kind"] == "mean"]
    assert len(reps) == 3 and len(means) == 1
    assert all(r["err"] >= 0 for r in rows)
    assert means[0]["err"] == pytest.approx(
        np.mean([r["err"] for r in reps]), abs=1e-12
    )
    expect_x = math.sqrt(2 * math.log(16) / 60)
    assert all(r["x"] == pytest.approx(expect_x) for r in rows)


def test_scaling_passes_rel_err_and_resample(monkeypatch):
    from truncem import harness

    seen = []
    fit = harness.fit_replicate

    def spying_fit(cfg, seed):
        seen.append((cfg.rel_err, cfg.resample))
        return fit(cfg, seed)

    monkeypatch.setattr(harness, "fit_replicate", spying_fit)
    run_scaling(small_cfg(model="GMM", rel_err=0.0, resample=True, n_iter=3,
                          s_star_grid=(2, 3), n_grid=(60,),
                          scaling_replicates=1, scaling_d=16))
    assert seen == [(0.0, True), (0.0, True)]


def test_typeone_requires_null_coordinate():
    with pytest.raises(ValueError):
        run_typeone(small_cfg(model="GMM", alpha_index=0, replicates=2))


def test_typeone_single_replicate_rate_binary():
    rows, summary = run_typeone(small_cfg(model="GMM", replicates=1))
    assert len(rows) == 1
    assert summary["score_rejection_rate"] in (0.0, 1.0)
    assert summary["wald_rejection_rate"] in (0.0, 1.0)
    assert summary["degenerate"] == 0
    assert summary["config"]["model"] == "GMM"


def test_infer_reproduces_typeone_record():
    cfg = small_cfg(model="GMM", replicates=3, seed=40)
    rows, _ = run_typeone(cfg)
    # replicate r of typeone equals a standalone infer run at seed + r
    single = run_infer(small_cfg(model="GMM", seed=42))
    row = rows[2]
    assert single["score"]["statistic"] == row["score_stat"]
    assert single["wald"]["statistic"] == row["wald_stat"]
    assert single["wald"]["ci_lo"] == row["ci_lo"]
    assert single["score"]["reject"] == bool(row["score_reject"])


def test_infer_p_value_for_stat_three():
    cfg = small_cfg(model="GMM").resolve()
    record = infer_replicate(cfg, seed=0)
    # whatever the statistic, the p-value obeys the two-sided formula;
    # and a |stat| of 3 would give p ~ 0.0027
    assert record["score_p"] == pytest.approx(
        2 * (1 - ndtr(abs(record["score_stat"]))), abs=1e-12
    )
    assert 2 * (1 - ndtr(3.0)) == pytest.approx(0.0027, abs=1e-4)


def test_fit_on_external_csv(tmp_path):
    from truncem.datagen import GenSpec, dataset_to_csv, gen_dataset, make_beta_star

    beta_star = make_beta_star(16, (4, 4))
    model = gen_dataset(GenSpec("GMM", 60, 16, beta_star, 1.0, seed=40))
    path = tmp_path / "data.csv"
    dataset_to_csv(model, path)
    generated = run_fit(small_cfg(model="GMM", seed=40))
    external = run_fit(small_cfg(model="GMM", seed=40, data_csv=str(path)))
    assert external["beta_hat"] == generated["beta_hat"]


def test_cli_fit_rmc_csv_with_nonfinite_unobserved_x(tmp_path, capsys):
    # NaN and inf where the mask is 0 fit as if those entries were zero
    from truncem.datagen import GenSpec, dataset_to_csv, gen_dataset, make_beta_star
    from truncem.models import MissingCovariateRegression

    model = gen_dataset(GenSpec("RMC", 60, 16, make_beta_star(16, (4, 4)), 1.0,
                                p_missing=0.2, seed=41))
    fills = np.where(np.arange(model.x.size).reshape(model.x.shape) % 2, np.nan, np.inf)
    estimates = []
    for name, fill in (("dirty", fills), ("zero", 0.0)):
        x = np.where(model.mask == 1, model.x, fill)
        path = tmp_path / f"{name}.csv"
        dataset_to_csv(MissingCovariateRegression(x, model.mask, model.y, 1.0), path)
        run_cli("fit", "--model", "RMC", "--s-star", "2", "--data", str(path))
        out = json.loads(capsys.readouterr().out)
        assert np.all(np.isfinite(out["beta_hat"]))
        assert math.isfinite(out["final_loglik"])
        estimates.append(out["beta_hat"])
    assert estimates[0] == estimates[1]


def test_infer_data_checks_alpha_index_before_fit(tmp_path, monkeypatch):
    from truncem import harness
    from truncem.datagen import GenSpec, dataset_to_csv, gen_dataset, make_beta_star

    model = gen_dataset(GenSpec("GMM", 40, 8, make_beta_star(8, (4, 4)), 1.0, seed=3))
    path = tmp_path / "d8.csv"
    dataset_to_csv(model, path)

    def no_em(*args):
        raise AssertionError("fitted before validating alpha_index")

    monkeypatch.setattr(harness, "run_em", no_em)
    with pytest.raises(ValueError, match="alpha_index"):
        run_infer(ExperimentConfig(model="GMM", s_star=2, data_csv=str(path)))


def test_commands_that_test_nothing_ignore_alpha_index(tmp_path, capsys):
    # the default alpha_index 9 is out of range for d = 8; trace and fit
    # test no coordinate, on generated or loaded data
    from truncem.datagen import GenSpec, dataset_to_csv, gen_dataset, make_beta_star

    model = gen_dataset(GenSpec("GMM", 40, 8, make_beta_star(8, (4, 4)), 1.0, seed=3))
    path = tmp_path / "d8.csv"
    dataset_to_csv(model, path)
    run_cli("trace", "--d", "8", "--s-star", "2")
    assert len(capsys.readouterr().out.splitlines()) == 12  # header and t = 0..10
    for source in (("--d", "8"), ("--data", str(path))):
        run_cli("fit", "--s-star", "2", *source)
        assert len(json.loads(capsys.readouterr().out)["beta_hat"]) == 8


# ---------------------------------------------------------------------------
# CSV / JSON output


def test_write_csv_round_trip(tmp_path):
    rows = [{"a": 1, "b": 1.0 / 3.0}, {"a": 2, "b": -1e-17}]
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert float(back[0]["b"]) == rows[0]["b"]
    assert float(back[1]["b"]) == rows[1]["b"]
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "empty.csv")


def test_summary_matches_recomputation_from_csv(tmp_path):
    cfg = small_cfg(model="GMM", replicates=4, out=str(tmp_path / "t1"))
    rows, summary = run_typeone(cfg)
    write_csv(rows, cfg.out + ".csv")
    with open(cfg.out + ".csv", newline="") as fh:
        back = list(csv.DictReader(fh))
    valid = [r for r in back if r["degenerate"] == "0"]
    rate = sum(int(r["score_reject"]) for r in valid) / len(valid)
    assert rate == summary["score_rejection_rate"]


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_trace_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run_cli(
        "trace", "--model", "GMM", "--d", "16", "--n", "60", "--s-star", "2",
        "--T", "3", "--out", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert "opt_error" in rows[0]


def test_cli_typeone_writes_csv_and_json(tmp_path):
    out = tmp_path / "t1"
    run_cli(
        "typeone", "--model", "GMM", "--d", "16", "--n", "60", "--s-star", "2",
        "--alpha-index", "5", "--replicates", "2", "--out", str(out),
    )
    with open(str(out) + ".json") as fh:
        summary = json.load(fh)
    assert summary["replicates"] == 2
    assert summary["config"]["alpha_index"] == 5
    with open(str(out) + ".csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_cli_infer_stdout_json(capsys):
    code = run_cli(
        "infer", "--model", "GMM", "--d", "16", "--n", "60", "--s-star", "2",
        "--alpha-index", "5",
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert "score" in out and "wald" in out
    assert out["config"]["d"] == 16


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "GMM", "d": 16, "n": 60,
                                    "s_star": 2, "alpha_index": 5,
                                    "n_iter": 2}))
    run_cli("fit", "--config", str(cfg_path), "--T", "4")
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["n_iter"] == 4  # flag wins over file
    assert out["config"]["d"] == 16


@pytest.mark.parametrize("command", ["typeone", "infer"])
def test_cli_alpha_index_out_of_range(command, monkeypatch):
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("fitted before validating alpha_index")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    with pytest.raises((ValueError, SystemExit)):
        run_cli(command, "--model", "GMM", "--d", "16", "--n", "60",
                "--s-star", "2", "--alpha-index", "16", "--replicates", "2")


@pytest.mark.parametrize("command, flags, key", [
    pytest.param("fit", ("--d", "16", "--s-star", "20"), "s_star", id="fit-s-star"),
    pytest.param("fit", ("--d", "16", "--s-hat", "20"), "s_hat", id="fit-s-hat"),
    pytest.param("scaling", ("--s-star-grid", "2", "200", "--n-grid", "200",
                             "--scaling-replicates", "1"), "s_star_grid",
                 id="scaling-grid"),
])
def test_cli_sparsity_above_dimension_rejected_before_any_fit(command, flags, key,
                                                              monkeypatch, capsys):
    # each failed mid-run: in make_beta_star, in run_em, or after the
    # earlier scaling cells had been fitted
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("fitted before validating the sparsity levels")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    with pytest.raises(ValueError, match=key):
        run_cli(command, "--model", "GMM", *flags)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [
    pytest.param(("--d", "4"), id="d-below-alpha-and-s-star"),
    pytest.param(("--scaling-d", "8"), id="scaling-d-below-alpha"),
    pytest.param(("--d", "4", "--s-star", "9", "--s-hat", "9"), id="d-below-s-hat"),
])
def test_cli_scaling_ignores_the_inference_dimension(flags, capsys):
    # scaling fits at scaling_d and tests no coordinate; --d, alpha_index,
    # s_star and s_hat were checked against --d all the same
    run_cli("scaling", "--model", "GMM", "--s-star-grid", "2", "--n-grid", "60",
            "--scaling-replicates", "1", "--T", "2", "--scaling-d", "16", *flags)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,s_star,n,replicate,x,err"
    assert [line.split(",")[:4] for line in lines[1:]] == [["rep", "2", "60", "0"],
                                                           ["mean", "2", "60", "-1"]]


@pytest.mark.parametrize("command", ["trace", "scaling", "typeone"])
def test_cli_generating_commands_reject_data_csv(command, tmp_path, monkeypatch):
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("ran on generated data despite data_csv")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "GMM", "d": 16, "n": 60, "s_star": 2,
                                    "alpha_index": 5, "replicates": 2,
                                    "data_csv": str(tmp_path / "data.csv")}))
    with pytest.raises(ValueError, match="generates its own data"):
        run_cli(command, "--config", str(cfg_path))


@pytest.mark.parametrize("command, flags", [
    pytest.param("infer", ("--lambda", "nan"), id="infer---lambda"),
    pytest.param("fit", ("--rel-err", "nan"), id="fit---rel-err"),
    pytest.param("fit", ("--rel-err", "inf"), id="fit---rel-err-inf"),
    pytest.param("fit", ("--m-step", "gradient", "--eta", "inf"), id="fit---eta-inf"),
])
def test_cli_rejects_nan_settings(command, flags):
    # a NaN lambda made every decorrelation direction zero, and a NaN or
    # infinite rel_err or eta wrote a NaN beta_hat, which is not valid JSON
    with pytest.raises(ValueError, match="must be nonnegative"):
        run_cli(command, "--model", "MR", "--d", "16", "--n", "40",
                "--alpha-index", "9", *flags)


@pytest.mark.parametrize("delta", ["0", "1.5", "nan"])
def test_cli_rejects_delta_before_any_fit(delta, monkeypatch):
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("ran before validating delta")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        run_cli("typeone", "--model", "GMM", "--d", "16", "--n", "40", "--s-star", "2",
                "--alpha-index", "5", "--replicates", "2", "--delta", delta)


@pytest.mark.parametrize("lam", ["-1", "nan"])
def test_cli_rejects_lambda_before_any_fit(lam, monkeypatch):
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("ran before validating lambda")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    with pytest.raises(ValueError, match="lam must be nonnegative"):
        run_cli("typeone", "--model", "GMM", "--d", "16", "--n", "40", "--s-star", "2",
                "--alpha-index", "5", "--replicates", "2", "--lambda", lam)


@pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "infer"])
def test_cli_rejects_sigma_before_the_data_load(command, sigma, monkeypatch):
    # the whole file was read before the model constructor rejected sigma
    from truncem import harness

    def no_load(*args, **kwargs):
        raise AssertionError("loaded the data before validating sigma")

    monkeypatch.setattr(harness, "dataset_from_csv", no_load)
    with pytest.raises(ValueError, match="sigma must be positive"):
        run_cli(command, "--model", "GMM", "--s-star", "2", "--data", "unread.csv",
                "--sigma", sigma)


@pytest.mark.parametrize("command", ["typeone", "infer"])
def test_cli_rejects_rmc_inference_before_any_fit(command, monkeypatch):
    from truncem import harness

    def no_fit(*args):
        raise AssertionError("fitted before rejecting RMC inference")

    monkeypatch.setattr(harness, "run_em", no_fit)
    with pytest.raises(UnsupportedOperationError, match="not implemented"):
        run_cli(command, "--model", "RMC", "--d", "16", "--n", "40", "--s-star", "2",
                "--alpha-index", "5", "--replicates", "2")


@pytest.mark.parametrize("command, extra", [
    ("fit", ()), ("fit", ("--data", "unread.csv")), ("trace", ()), ("scaling", ()),
])
def test_cli_rejects_rmc_exact_m_step_before_any_data(command, extra, monkeypatch):
    from truncem import harness
    from truncem.models import MissingCovariateRegression

    def no_data(*args, **kwargs):
        raise AssertionError("loaded, generated or fitted before rejecting the M-step")

    with pytest.raises(UnsupportedOperationError) as model_raised:
        MissingCovariateRegression(np.ones((2, 2)), np.ones((2, 2)), np.ones(2),
                                   1.0).m_step_exact(np.zeros(2))
    for name in ("gen_dataset", "dataset_from_csv", "run_em"):
        monkeypatch.setattr(harness, name, no_data)
    with pytest.raises(UnsupportedOperationError) as cli_raised:
        run_cli(command, "--model", "RMC", "--m-step", "exact", "--d", "16", "--n", "40",
                "--s-star", "2", *extra)
    with pytest.raises(UnsupportedOperationError) as resolve_raised:
        ExperimentConfig(model="RMC", m_step="exact").resolve()
    assert str(cli_raised.value) == str(resolve_raised.value) == str(model_raised.value)


@pytest.mark.parametrize("settings, message", [
    # an unknown model died in a KeyError on its default sigma, and an
    # unknown M-step only in EmConfig, after replicate 0's data was drawn
    pytest.param({"model": "gmm"}, "model must be one of GMM, MR, RMC; got 'gmm'",
                 id="model"),
    pytest.param({"model": "MR", "m_step": "Exact"},
                 "m_step must be exact or gradient; got 'Exact'", id="m-step"),
])
def test_cli_rejects_unknown_model_or_m_step_before_any_data(settings, message, tmp_path,
                                                             monkeypatch):
    from truncem import harness

    def no_data(*args, **kwargs):
        raise AssertionError("generated or fitted before validating the config")

    for name in ("gen_dataset", "run_em"):
        monkeypatch.setattr(harness, name, no_data)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**settings, "d": 16, "n": 40, "s_star": 2}))
    with pytest.raises(ValueError) as raised:
        run_cli("fit", "--config", str(cfg_path))
    assert str(raised.value) == message


# a config file that is not a JSON object was passed to dict.update: a list
# raised TypeError, a string ValueError, and a list of pairs was read as keys
@pytest.mark.parametrize("settings", [
    pytest.param({"modle": "GMM"}, id="unknown-key"),
    pytest.param([1, 2], id="list"),
    pytest.param("fit", id="string"),
    pytest.param([["d", 8], ["s_star", 2], ["n", 30]], id="list-of-pairs"),
])
def test_cli_rejects_unknown_config_keys(tmp_path, settings):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    with pytest.raises(SystemExit):
        run_cli("fit", "--config", str(cfg_path))


# a missing file ended in a FileNotFoundError traceback, unparsable JSON in
# a JSONDecodeError traceback, and a repeated key silently kept its last value
@pytest.mark.parametrize("text, message", [
    pytest.param(None, r"cannot read config file .*cfg\.json: .*No such file", id="missing"),
    pytest.param('{"d": 8,', r"cannot read config file .*cfg\.json: Expecting", id="not-json"),
    pytest.param('{"d": 8, "s_star": 2, "d": 300}', r"repeated config keys: \['d'\]",
                 id="repeated-key"),
])
def test_cli_rejects_unreadable_config_files(tmp_path, monkeypatch, text, message):
    no_data(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    with pytest.raises(SystemExit, match=message):
        run_cli("fit", "--config", str(cfg_path))


def no_data(monkeypatch):
    """Make drawing or loading a dataset fail the test."""
    from truncem import harness

    def raise_(*args, **kwargs):
        raise AssertionError("drew or loaded data before validating the config")

    for name in ("gen_dataset", "dataset_from_csv"):
        monkeypatch.setattr(harness, name, raise_)


@pytest.mark.parametrize("command, flags, message", [
    # each was raised by EmConfig, make_init or run_em after the data was drawn
    pytest.param("fit", ("--s-hat", "0"), "s_hat must be >= 1", id="s-hat-zero"),
    pytest.param("fit", ("--T", "-1"), "n_iter must be >= 0", id="T-negative"),
    pytest.param("fit", ("--rel-err", "-1"), "rel_err must be nonnegative",
                 id="rel-err-negative"),
    pytest.param("fit", ("--resample", "--T", "0"), "resampled EM needs n_iter >= 1",
                 id="resample-T-zero"),
    pytest.param("fit", ("--data", "unread.csv", "--resample", "--T", "0"),
                 "resampled EM needs n_iter >= 1", id="data-resample-T-zero"),
    pytest.param("fit", ("--n", "5", "--T", "10", "--resample"),
                 "cannot split 5 samples into 10 blocks", id="resample-split"),
    pytest.param("scaling", ("--n-grid", "200", "5", "--T", "10", "--resample"),
                 "cannot split 5 samples into 10 blocks", id="scaling-resample-split"),
    pytest.param("fit", ("--model", "MR", "--eta", "-1"), "eta must be nonnegative",
                 id="mr-eta-negative"),
    pytest.param("fit", ("--model", "MR", "--eta", "inf"), "eta must be nonnegative",
                 id="mr-eta-inf"),
])
def test_cli_rejects_em_settings_before_any_data(command, flags, message, monkeypatch):
    no_data(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_cli(command, "--d", "16", "--s-star", "2", "--alpha-index", "5", *flags)


@pytest.mark.parametrize("command, settings, key", [
    # "no" ran resampled EM, 9.5 failed in score_test, 2.5 in run_em, and
    # 3 in config_from_args, the last three with a TypeError
    pytest.param("fit", {"resample": "no"}, "resample", id="resample-str"),
    pytest.param("infer", {"alpha_index": 9.5}, "alpha_index", id="alpha-index-float"),
    pytest.param("fit", {"n_iter": 2.5}, "n_iter", id="n-iter-float"),
    pytest.param("scaling", {"s_star_grid": 3}, "s_star_grid", id="grid-int"),
    pytest.param("scaling", {"n_grid": [200, 400.0]}, "n_grid", id="grid-float-entry"),
    pytest.param("fit", {"d": True}, "d", id="d-bool"),
    pytest.param("fit", {"sigma": "1.0"}, "sigma", id="sigma-str"),
])
def test_cli_rejects_config_values_of_the_wrong_type(command, settings, key, tmp_path,
                                                      monkeypatch):
    no_data(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    with pytest.raises(ValueError, match=f"^{key} must be "):
        run_cli(command, "--config", str(cfg_path))


def test_config_types_admit_numpy_integers_ints_as_floats_and_none():
    cfg = ExperimentConfig(d=np.int64(16), n=60, s_star=2, alpha_index=np.int32(5),
                           sigma=1, eta=2, beta_values=(4, 4.0), s_star_grid=(2,),
                           lam=None, resample=True, n_iter=3).resolve()
    assert (cfg.d, cfg.sigma, cfg.beta_values) == (16, 1, (4, 4.0))


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        run_cli()


@pytest.mark.parametrize("command, flag, value, key", [
    ("typeone", "--replicates", "-3", "replicates"),
    ("typeone", "--replicates", "0", "replicates"),
    ("scaling", "--scaling-replicates", "0", "scaling_replicates"),
])
def test_cli_rejects_replicate_counts_below_one(command, flag, value, key, tmp_path,
                                                monkeypatch):
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("ran before validating the replicate count")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    out = tmp_path / "t0"
    with pytest.raises(ValueError, match=f"{key} must be >= 1"):
        run_cli(command, "--model", "GMM", "--d", "16", "--n", "40", "--s-star", "2",
                "--alpha-index", "5", flag, value, "--out", str(out))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("settings, flags, key", [
    pytest.param({"n_grid": []}, (), "n_grid", id="empty-n-grid"),
    pytest.param({"s_star_grid": []}, (), "s_star_grid", id="empty-s-star-grid"),
    pytest.param({}, ("--n-grid", "0"), "n_grid", id="n-zero"),
    pytest.param({}, ("--n-grid", "200", "-1"), "n_grid", id="n-negative"),
    pytest.param({}, ("--s-star-grid", "2", "0"), "s_star_grid", id="s-star-zero"),
])
def test_cli_rejects_degenerate_scaling_grids_before_any_fit(settings, flags, key, tmp_path,
                                                             monkeypatch, capsys):
    # an empty grid crashed on printing no rows, n = 0 divided by zero, and
    # s* = 0 failed only after the earlier cells had been fitted
    from truncem import harness

    def no_fit(cfg, seed):
        raise AssertionError("ran before validating the grids")

    monkeypatch.setattr(harness, "fit_replicate", no_fit)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(settings))
    with pytest.raises(ValueError, match=f"{key} must be >= 1"):
        run_cli("scaling", "--config", str(cfg_path), "--model", "GMM",
                "--scaling-replicates", "1", *flags)
    assert capsys.readouterr().out == ""


def test_trace_est_error_is_sign_aligned():
    # from rel_err = 10, seed 0 converges to -beta*: the trace reported
    # ||beta_T - beta*|| = 11.1 where fit reports 0.29 for the same run
    rows = run_trace(small_cfg(model="GMM", rel_err=10.0))
    fit = run_fit(small_cfg(model="GMM", rel_err=10.0))
    assert rows[-1]["est_error"] == fit["est_error"] < 1.0


@pytest.mark.parametrize("command, flags", [
    ("trace", ("--d", "16", "--n", "60", "--s-star", "2", "--T", "3")),
    ("scaling", ("--s-star-grid", "2", "--n-grid", "60", "--scaling-replicates", "2",
                 "--scaling-d", "16", "--T", "2")),
])
def test_cli_stdout_equals_the_out_file(command, flags, tmp_path, capsys):
    # stdout ended lines with LF while --out kept the csv module's CRLF
    run_cli(command, "--model", "GMM", *flags)
    stdout = capsys.readouterr().out
    out = tmp_path / "out.csv"
    run_cli(command, "--model", "GMM", *flags, "--out", str(out))
    assert capsys.readouterr().out.startswith(f"wrote {out} (")
    assert stdout.encode() == out.read_bytes()
