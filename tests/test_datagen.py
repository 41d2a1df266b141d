import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import gen_arrays_reference
from truncem.datagen import (
    GenSpec,
    dataset_from_csv,
    dataset_to_csv,
    gen_dataset,
    make_beta_star,
    make_init,
)


# ---------------------------------------------------------------------------
# make_beta_star


def test_beta_star_paper_pattern():
    beta = make_beta_star(256, (4, 4, 4, 6, 6))
    assert np.count_nonzero(beta) == 5
    assert np.linalg.norm(beta) == pytest.approx(math.sqrt(120), abs=1e-12)
    assert beta[:5].tolist() == [4, 4, 4, 6, 6]
    assert np.all(beta[5:] == 0)


def test_beta_star_empty_and_dense():
    assert make_beta_star(3, ()).tolist() == [0, 0, 0]
    assert make_beta_star(2, (1.5, -2.0)).tolist() == [1.5, -2.0]
    with pytest.raises(ValueError):
        make_beta_star(2, (1, 2, 3))


# ---------------------------------------------------------------------------
# GenSpec validation


def test_genspec_validation():
    beta = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        GenSpec("XXX", 5, 2, beta, 1.0)
    with pytest.raises(ValueError):
        GenSpec("GMM", 5, 3, beta, 1.0)  # wrong length
    with pytest.raises(ValueError):
        GenSpec("GMM", 0, 2, beta, 1.0)
    with pytest.raises(ValueError):
        GenSpec("GMM", 5, 2, beta, 0.0)  # sigma must be positive
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        GenSpec("GMM", 5, 2, beta, math.inf)
    with pytest.raises(ValueError):
        GenSpec("RMC", 5, 2, beta, 1.0, p_missing=1.0)
    with pytest.raises(ValueError):
        GenSpec("MR", 5, 2, np.zeros(2), 1.0)  # degenerate truth


# ---------------------------------------------------------------------------
# gen_dataset


@pytest.mark.parametrize("model, n, d, p_missing", [
    ("GMM", 40, 6, 0.0),
    ("GMM", 800, 128, 0.0),
    ("MR", 40, 6, 0.0),
    ("RMC", 40, 6, 0.0),
    ("RMC", 40, 6, 0.1),
])
def test_generators_match_out_of_place_reference(model, n, d, p_missing):
    beta = make_beta_star(d, (3.0, -1.5, 0.5))
    for seed in range(20):
        spec = GenSpec(model, n, d, beta, 0.7, p_missing=p_missing, seed=seed)
        data = gen_dataset(spec)
        fields = {"GMM": ("y",), "MR": ("x", "y"), "RMC": ("x", "mask", "y")}[model]
        for name, want in zip(fields, gen_arrays_reference(spec), strict=True):
            have = getattr(data, name)
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()


def test_gmm_noiseless_limit():
    beta = np.array([4.0, -2.0, 1.0])
    model = gen_dataset(GenSpec("GMM", 50, 3, beta, 1e-300, seed=3))
    y = model.y
    close_plus = np.all(np.abs(y - beta) < 1e-290, axis=1)
    close_minus = np.all(np.abs(y + beta) < 1e-290, axis=1)
    assert np.all(close_plus | close_minus)
    assert np.any(close_plus) and np.any(close_minus)


def test_rmc_no_missingness_full_mask():
    beta = np.array([1.0, 2.0])
    model = gen_dataset(GenSpec("RMC", 20, 2, beta, 1.0, p_missing=0.0, seed=1))
    assert np.all(model.mask == 1.0)


def test_rmc_missing_rate_roughly_matches():
    beta = np.ones(4)
    model = gen_dataset(GenSpec("RMC", 500, 4, beta, 1.0, p_missing=0.3, seed=2))
    rate = 1.0 - model.mask.mean()
    assert abs(rate - 0.3) < 0.05


def test_determinism_and_stream_independence():
    beta = np.array([1.0, 0.0])
    a = gen_dataset(GenSpec("GMM", 30, 2, beta, 1.0, seed=7))
    b = gen_dataset(GenSpec("GMM", 30, 2, beta, 1.0, seed=7))
    c = gen_dataset(GenSpec("GMM", 30, 2, beta, 1.0, seed=8))
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_gmm_draw_order_and_sign_symmetry():
    # reconstruct the documented draw order by hand; flipping both the
    # signs and the noise negates the dataset, and the likelihood of the
    # flipped data at -beta matches the original at beta
    beta = np.array([2.0, -1.0])
    spec = GenSpec("GMM", 25, 2, beta, 0.7, seed=11)
    model = gen_dataset(spec)
    rng = np.random.default_rng(11)
    signs = rng.integers(0, 2, size=25) * 2.0 - 1.0
    noise = rng.standard_normal((25, 2))
    y_manual = signs[:, None] * beta + 0.7 * noise
    assert np.array_equal(model.y, y_manual)
    y_flip = (-signs)[:, None] * beta + 0.7 * (-noise)
    assert np.array_equal(y_flip, -y_manual)
    probe = np.array([0.3, 1.1])
    from truncem.models import GaussianMixture

    flip_model = GaussianMixture(y_flip, 0.7)
    assert flip_model.loglik(-probe) == pytest.approx(
        model.loglik(probe), abs=1e-9
    )


def test_mr_draw_shapes_and_model():
    beta = np.array([1.0, -1.0, 0.0])
    model = gen_dataset(GenSpec("MR", 40, 3, beta, 0.5, seed=4))
    assert model.tag == "MR"
    assert model.x.shape == (40, 3)
    assert model.y.shape == (40,)
    assert model.sigma == 0.5


def test_gmm_first_coordinate_mean_vs_quadrature():
    # E|Z + V| for the first coordinate, via numerical integration
    beta = np.array([1.0, 0.0])
    model = gen_dataset(GenSpec("GMM", 10_000, 2, beta, 1.0, seed=5))
    y1 = np.abs(model.y[:, 0])

    def density(t):
        phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
        return abs(t) * 0.5 * (phi(t - 1.0) + phi(t + 1.0))

    expect, _ = quad(density, -12, 12)
    se = y1.std(ddof=1) / math.sqrt(y1.size)
    assert abs(y1.mean() - expect) <= 4 * se


# ---------------------------------------------------------------------------
# make_init


def test_make_init_zero_rel_err():
    beta = np.array([2.0, 0.0, -1.0])
    assert np.array_equal(make_init(beta, 0.0, seed=1), beta)


def test_make_init_exact_relative_distance():
    beta = make_beta_star(40, (4, 4, 4, 6, 6))
    for seed in (0, 1, 17):
        init = make_init(beta, 0.1, seed=seed)
        ratio = np.linalg.norm(init - beta) / np.linalg.norm(beta)
        assert ratio == pytest.approx(0.1, abs=1e-12)


def test_make_init_distinct_seeds_same_norm():
    beta = make_beta_star(10, (3.0, -2.0))
    a = make_init(beta, 0.1, seed=0)
    b = make_init(beta, 0.1, seed=1)
    assert not np.array_equal(a, b)
    assert np.linalg.norm(a - beta) == pytest.approx(
        np.linalg.norm(b - beta), abs=1e-12
    )


def test_make_init_validation():
    with pytest.raises(ValueError):
        make_init(np.array([1.0]), -0.1, seed=0)
    with pytest.raises(ValueError):
        make_init(np.array([1.0]), np.nan, seed=0)
    with pytest.raises(ValueError, match="rel_err must be nonnegative"):
        make_init(np.array([1.0]), np.inf, seed=0)
    with pytest.raises(ValueError):
        make_init(np.zeros(3), 0.1, seed=0)


# ---------------------------------------------------------------------------
# CSV round trips


@pytest.mark.parametrize("tag", ["GMM", "MR", "RMC"])
def test_csv_round_trip(tag, tmp_path):
    beta = np.array([1.5, 0.0, -2.0])
    spec = GenSpec(tag, 12, 3, beta, 0.8, p_missing=0.25 if tag == "RMC" else 0.0,
                   seed=9)
    model = gen_dataset(spec)
    path = tmp_path / "data.csv"
    dataset_to_csv(model, path)
    back = dataset_from_csv(tag, path, sigma=0.8)
    if tag == "GMM":
        assert np.array_equal(back.y, model.y)
    else:
        assert np.array_equal(back.x, model.x)
        assert np.array_equal(back.y, model.y)
    if tag == "RMC":
        assert np.array_equal(back.mask, model.mask)


def test_csv_malformed_rows_reported(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y0,y1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 3"):
        dataset_from_csv("GMM", str(path), sigma=1.0)
    path.write_text("y0,y1\n1.0,zzz\n")
    with pytest.raises(ValueError, match="row 2"):
        dataset_from_csv("GMM", str(path), sigma=1.0)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        dataset_from_csv("GMM", str(path), sigma=1.0)
    with pytest.raises(ValueError):
        dataset_from_csv("XXX", str(path), sigma=1.0)


def test_csv_rmc_needs_odd_column_count(tmp_path):
    # 2d + 1 columns: x_0..x_{d-1}, m_0..m_{d-1}, y
    path = tmp_path / "rmc.csv"
    path.write_text("x0,x1,m0,m1,y,extra\n1.0,2.0,1,0,0.5,9.0\n")
    with pytest.raises(ValueError, match="2d \\+ 1"):
        dataset_from_csv("RMC", str(path), sigma=1.0)


@pytest.mark.parametrize("tag, header", [("GMM", "y0,y1"), ("MR", "x0,x1,y"),
                                         ("RMC", "x0,m0,y"), ("GMM", "\n"), ("MR", "\n"),
                                         ("RMC", "\n")])
def test_csv_without_data_rows_rejected(tag, header, tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text(header + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no data rows")):
        dataset_from_csv(tag, str(path), sigma=1.0)


@pytest.mark.parametrize("tag", ["MR", "RMC"])
def test_csv_without_covariate_columns_rejected(tag, tmp_path):
    path = tmp_path / "y_only.csv"
    path.write_text("y\n0.5\n-1.0\n")
    with pytest.raises(ValueError, match=r"x must be a nonempty \(n, d\) matrix"):
        dataset_from_csv(tag, str(path), sigma=1.0)
