"""Property tests of the coarray selection matrix on arbitrary arrays.

Positions are drawn as random integer sets (mostly with coarray holes)
and as nested arrays (hole-free coarrays). Each property must hold for
every draw.
"""

import numpy as np
import pytest

from coarray_lab import geometry

hypothesis = pytest.importorskip('hypothesis')
st = hypothesis.strategies

holey = st.sets(st.integers(0, 40), min_size=2, max_size=9).map(
    lambda pos: geometry.custom(sorted(pos)))
hole_free = st.builds(geometry.nested, st.integers(1, 5), st.integers(1, 5))
arrays = st.one_of(holey, hole_free)
seeds = st.integers(0, 2 ** 32 - 1)
settings = hypothesis.settings(max_examples=40, deadline=None)


def coarray_and_f(geom):
    co = geometry.difference_coarray(geom)
    return co, geometry.selection_matrix(co)


@settings
@hypothesis.given(arrays)
def test_rows_of_f_sum_to_one(geom):
    _, f = coarray_and_f(geom)
    np.testing.assert_allclose(f.sum(axis=1), 1.0, rtol=0, atol=1e-14)


@settings
@hypothesis.given(arrays)
def test_columns_of_f_hold_at_most_one_nonzero(geom):
    _, f = coarray_and_f(geom)
    assert np.all(np.count_nonzero(f, axis=0) <= 1)


@settings
@hypothesis.given(arrays, seeds)
def test_lag_gather_applies_f_transpose(geom, seed):
    co, f = coarray_and_f(geom)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(2 * co.mv - 1) \
        + 1j * rng.standard_normal(2 * co.mv - 1)
    cols, rows, vals = geometry._lag_gather(co)
    gathered = np.zeros(f.shape[1], dtype=complex)
    gathered[cols] = y[rows] * vals
    np.testing.assert_array_equal(gathered, f.T @ y)


@settings
@hypothesis.given(arrays, seeds)
def test_virtual_observation_of_hermitian_is_conjugate_symmetric(geom, seed):
    co, f = coarray_and_f(geom)
    m = geom.n_sensors
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = x + x.conj().T
    z = f @ r.reshape(-1, order='F')
    np.testing.assert_allclose(z[::-1], z.conj(), rtol=0, atol=1e-12)
