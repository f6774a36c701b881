"""Property tests of the coarray selection matrix, the augmentations,
the closed forms, the resolution threshold and the chunking of Monte
Carlo trials.

Positions are drawn as random integer sets (mostly with coarray holes)
and as nested arrays (hole-free coarrays). Each property must hold for
every draw.
"""

import numpy as np
import pytest

from coarray_lab import analysis, estimator, geometry, harness, model
from test_analysis import outcome, threshold_full_scan

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


def random_virtual(geom, seed):
    """mv and z = F r of a random Hermitian R on the array."""
    co, f = coarray_and_f(geom)
    m = geom.n_sensors
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = x + x.conj().T
    return co.mv, f @ r.reshape(-1, order='F')


@settings
@hypothesis.given(arrays, seeds)
def test_smoothed_augmentation_is_direct_squared(geom, seed):
    mv, z = random_virtual(geom, seed)
    rv_da = estimator.augment_direct(z, mv)
    rv_ss = estimator.augment_spatial_smoothing(z, mv)
    scale = np.linalg.norm(rv_ss)
    np.testing.assert_allclose(rv_ss, rv_da @ rv_da / mv, rtol=0,
                               atol=1e-12 * scale)


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True))
def test_smallest_magnitude_eigenvectors_span_smoothed_noise(geom, seed, u):
    mv, z = random_virtual(geom, seed)
    hypothesis.assume(mv >= 2)
    k = 1 + int(u * (mv - 1))
    _, values, vectors = estimator.noise_subspace(
        estimator.augment_direct(z, mv), k, return_eigensystem=True)
    order = np.argsort(np.abs(values))
    mags = np.abs(values[order])
    # only where the |lambda| gap between noise and signal is clear
    hypothesis.assume(mags[mv - k] - mags[mv - k - 1] > 1e-3 * mags[-1])
    en_da = vectors[:, order[:mv - k]]
    en_ss = estimator.noise_subspace(
        estimator.augment_spatial_smoothing(z, mv), k)
    np.testing.assert_allclose(en_da @ en_da.conj().T,
                               en_ss @ en_ss.conj().T, rtol=0, atol=1e-10)


def random_scenario(geom, seed, u):
    """1 <= K < mv sources with unequal powers at -10 to 20 dB SNR.

    One source sits in each equal cell of sin(theta) over (-0.9, 0.9),
    away from the cell edges. K <= 0.9 mv keeps a cell at least 2 / mv
    wide, the resolution of the virtual array, so the sources are well
    separated; closer ones make the CRB's Gram matrix so ill-conditioned
    (1e8 and more) that rounding alone moves it by more than 1e-10.
    """
    mv = geometry.difference_coarray(geom).mv
    k = 1 + int(u * (max(1, min(mv - 1, int(0.9 * mv))) - 1))
    rng = np.random.default_rng(seed)
    cells = (np.arange(k) + rng.uniform(0.25, 0.75, k)) / k
    return model.SourceScenario(tuple(np.arcsin(-0.9 + 1.8 * cells)),
                                tuple(rng.uniform(0.5, 2.0, k)),
                                10.0 ** rng.uniform(-2.0, 1.0))


def assert_same_up_to_rounding(scaled, base):
    np.testing.assert_allclose(scaled, base, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(base)))


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True),
                  st.floats(1e-3, 1e3))
def test_mse_and_crb_invariant_to_joint_power_scaling(geom, seed, u, factor):
    hypothesis.assume(geometry.difference_coarray(geom).mv >= 2)
    sc = random_scenario(geom, seed, u)
    scaled = sc.scaled(factor)
    try:
        mse = analysis.analytical_mse(geom, sc, 500)
    except analysis.NumericalFailure:
        with pytest.raises(analysis.NumericalFailure):
            analysis.analytical_mse(geom, scaled, 500)
    else:
        assert_same_up_to_rounding(analysis.analytical_mse(geom, scaled, 500),
                                   mse)
    try:
        base = analysis.crb(geom, sc, 500)
    except analysis.NumericalFailure:
        with pytest.raises(analysis.NumericalFailure):
            analysis.crb(geom, scaled, 500)
        return
    other = analysis.crb(geom, scaled, 500)
    assert other.defined == base.defined
    assert other.jacobian_rank == base.jacobian_rank
    if base.defined:
        assert_same_up_to_rounding(other.crb, base.crb)


@settings
@hypothesis.given(
    holey.filter(lambda geom: geometry.difference_coarray(geom).mv >= 7),
    st.floats(-10.0, 30.0), st.integers(20, 5000), st.floats(-50.0, 50.0))
def test_resolution_threshold_matches_full_scan(geom, snr_db, n, center_deg):
    # the coarse-to-fine scan finds the full scan's first crossing; from
    # mv = 7 up nearly every draw has one below 6 deg, so the two values
    # are compared (smaller coarrays mostly raise on both sides, which
    # test_analysis covers)
    center = np.deg2rad(center_deg)
    noise = 10.0 ** (-snr_db / 10.0)
    got = outcome(analysis.resolution_threshold, geom, n, center=center,
                  power=1.0, noise_power=noise)
    want = outcome(threshold_full_scan, geom, n, analysis.analytical_mse,
                   center=center, noise_power=noise)
    assert got == want


@settings
@hypothesis.given(st.integers(1, 8), st.lists(st.floats(0.0, 1.0), max_size=4),
                  st.sampled_from([('da',), ('ss',), ('da', 'ss')]), seeds)
def test_trial_records_do_not_depend_on_chunking(n_trials, cuts, methods,
                                                  seed):
    # any split of the trials into contiguous ranges, run one range at
    # a time as a worker does, gives the single-range records exactly
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 25.0]), 0.0)
    point = (geom, sc, 40, methods, seed, 3)
    step = np.deg2rad(0.5)
    serial = harness.run_trials(*point, n_trials, step, threads=1)
    bounds = sorted({0, n_trials, *(round(c * n_trials) for c in cuts)})
    pieces = [harness._trial_block(*point, step, range(lo, hi))
              for lo, hi in zip(bounds, bounds[1:])]
    assert [rec for piece in pieces for rec in piece] == serial
