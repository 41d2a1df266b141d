import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import best_sparse_l2, top_support_argsort
from truncem.sparsity import hard_truncate, top_support

finite_vectors = arrays(
    np.float64,
    st.integers(1, 8),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
# values on a coarse grid, so that ties are common, with many signed zeros,
# infinities and NaNs
tied_vectors = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
        st.just(np.nan),
        st.floats(-2.0, 2.0).map(lambda v: round(v, 1)),
    ),
)


def test_top_support_two_largest():
    assert top_support([0.5, -2.0, 0.0, 1.0], 2).tolist() == [1, 3]


def test_top_support_tie_prefers_smaller_index():
    assert top_support([1.0, -1.0, 0.0], 1).tolist() == [0]


def test_top_support_full_and_empty():
    beta = [3.0, -1.0, 2.0]
    assert top_support(beta, 3).tolist() == [0, 1, 2]
    assert top_support(beta, 0).tolist() == []


def test_top_support_zero_vector_leading_indices():
    assert top_support(np.zeros(5), 3).tolist() == [0, 1, 2]


@given(tied_vectors)
def test_top_support_matches_stable_argsort(beta):
    # the partition form must keep the argsort's choice among ties and NaNs
    for s in range(1, beta.shape[0] + 1):
        assert np.array_equal(top_support(beta, s), top_support_argsort(beta, s))


def test_top_support_invalid_s():
    with pytest.raises(ValueError):
        top_support([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        top_support([1.0, 2.0], -1)


def test_truncate_example():
    assert hard_truncate([3.0, 1.0, 2.0], [0, 2]).tolist() == [3.0, 0.0, 2.0]


def test_truncate_empty_support():
    assert hard_truncate([3.0, 1.0, 2.0], []).tolist() == [0.0, 0.0, 0.0]


def test_truncate_out_of_range():
    with pytest.raises(ValueError):
        hard_truncate([1.0, 2.0], [2])
    with pytest.raises(ValueError):
        hard_truncate([1.0, 2.0], [-1])


@given(finite_vectors)
def test_support_preserving_identity(beta):
    nnz = int(np.count_nonzero(beta))
    out = hard_truncate(beta, top_support(beta, nnz))
    assert np.array_equal(out, beta)


@given(finite_vectors, st.data())
def test_truncation_sparsity_and_idempotence(beta, data):
    s = data.draw(st.integers(0, beta.shape[0]))
    support = top_support(beta, s)
    out = hard_truncate(beta, support)
    assert np.count_nonzero(out) <= s
    assert np.array_equal(hard_truncate(out, support), out)


@settings(max_examples=60)
@given(finite_vectors, st.data())
def test_top_support_maximizes_l2(beta, data):
    s = data.draw(st.integers(0, beta.shape[0]))
    kept = np.linalg.norm(hard_truncate(beta, top_support(beta, s)))
    assert kept <= np.linalg.norm(beta) + 1e-12
    assert kept == pytest.approx(best_sparse_l2(beta, s), abs=1e-9)


@given(finite_vectors, st.data())
def test_permutation_equivariance_of_kept_values(beta, data):
    # distinct magnitudes so the tie rule cannot interfere
    beta = beta + np.linspace(0, 1e-7, beta.shape[0])
    s = data.draw(st.integers(0, beta.shape[0]))
    perm = data.draw(st.permutations(range(beta.shape[0])))
    perm = np.asarray(perm)
    direct = np.sort(np.abs(beta[top_support(beta, s)]))
    permuted = np.sort(np.abs(beta[perm][top_support(beta[perm], s)]))
    assert np.allclose(direct, permuted)
