"""Property tests of the coarray selection matrix and the lag average
that forms z = F vec(R) without it, the augmentations, MUSIC on exact
and on mirrored data, the closed forms and the CRB, the resolution
threshold and the chunking of Monte Carlo trials.

Positions are drawn as random integer sets (mostly with coarray holes)
and as nested arrays (hole-free coarrays). Each property must hold for
every draw.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
import unittest.mock

import numpy as np
import pytest

from coarray_lab import (analysis, cli, estimator, geometry, harness, model,
                         reference)
from test_analysis import check_threshold, outcome, recorded_brackets

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


# |z - F vec(R)| <= Z_RTOL F |vec(R)|, entry by entry: z sums each lag's
# entries and then divides, F vec(R) scales each entry before summing.
# The largest ratio over 18000 draws of these strategies (general
# complex R, scaled by 1e-3 to 1e3) was 3.2e-16.
Z_RTOL = 4e-15


@settings
@hypothesis.given(arrays, seeds, st.integers(1, 4))
def test_virtual_observation_is_the_lag_average(geom, seed, b):
    co, f = coarray_and_f(geom)
    m = geom.n_sensors
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((b, m, m)) + 1j * rng.standard_normal((b, m, m))
    z = model.virtual_observation(co, r)
    assert z.shape == (b, 2 * co.mv - 1)
    for r_one, z_one in zip(r, z):
        want = f @ model.vec(r_one)
        assert np.all(np.abs(z_one - want)
                      <= Z_RTOL * (f @ np.abs(model.vec(r_one))))
        # a slice of the stack is its own call, bit for bit
        np.testing.assert_array_equal(model.virtual_observation(co, r_one),
                                      z_one)
    # w(0) ones summed, then divided by w(0): exactly one
    e_center = np.zeros(2 * co.mv - 1)
    e_center[co.mv - 1] = 1.0
    np.testing.assert_array_equal(model.virtual_observation(co, np.eye(m)),
                                  e_center)


def random_virtual(geom, seed):
    """mv and z = F vec(R) of a random Hermitian R on the array."""
    co = geometry.difference_coarray(geom)
    m = geom.n_sensors
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return co.mv, model.virtual_observation(co, x + x.conj().T)


@settings
@hypothesis.given(arrays, seeds)
def test_virtual_observation_of_hermitian_is_conjugate_symmetric(geom, seed):
    _, z = random_virtual(geom, seed)
    np.testing.assert_allclose(z[::-1], z.conj(), rtol=0, atol=1e-12)


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


def scanned_bases(z, mv, k):
    """run_music's DA and SS estimates and the noise bases it scanned."""
    bases = []
    scan = estimator.estimate_doas

    def spy(en, *args):
        bases.append(en)
        return scan(en, *args)

    estimator._TRIAL_CACHE.clear()
    with unittest.mock.patch.object(estimator, 'estimate_doas', spy):
        ests = [estimator.run_music(z, mv, k, m) for m in ('da', 'ss')]
    # SS scans a second basis only when it picks other columns than DA
    return ests, (bases[0], bases[-1])


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True))
def test_real_form_gives_the_noise_projectors_of_the_complex_route(geom, seed,
                                                                   u):
    mv, z = random_virtual(geom, seed)
    hypothesis.assume(mv >= 2)
    k = 1 + int(u * (mv - 1))
    _, values, vectors = estimator.noise_subspace(
        estimator.augment_direct(z, mv), k, return_eigensystem=True)
    order = np.argsort(np.abs(values))
    mags = np.abs(values[order])
    # only where the gap at each method's cut is clear
    hypothesis.assume(values[mv - k] - values[mv - k - 1] > 1e-3 * mags[-1])
    hypothesis.assume(mags[mv - k] - mags[mv - k - 1] > 1e-3 * mags[-1])
    ests, bases = scanned_bases(z, mv, k)
    for est, en, cols in zip(ests, bases, (np.arange(mv - k),
                                           np.sort(order[:mv - k]))):
        want = vectors[:, cols]
        np.testing.assert_allclose(en @ en.conj().T, want @ want.conj().T,
                                   rtol=0, atol=1e-10)
        assert est.resolved == estimator.estimate_doas(want, k).resolved


def separated_scenario(geom, seed, u):
    """1 <= K < mv sources inside +-70 deg, three beamwidths apart.

    One source sits in each equal cell of sin(theta) over
    (-sin 70 deg, sin 70 deg), at least three virtual-array beamwidths
    2 / mv from its neighbours.
    """
    mv = geometry.difference_coarray(geom).mv
    span = 2.0 * np.sin(np.deg2rad(70.0))
    gap = 6.0 / mv
    k = 1 + int(u * min(mv - 1, int(span / gap)))
    rng = np.random.default_rng(seed)
    width = span / k
    jitter = rng.uniform(-0.5, 0.5, k) * max(width - gap, 0.0)
    sines = -span / 2 + width * (np.arange(k) + 0.5) + jitter
    return model.SourceScenario(tuple(np.arcsin(sines)),
                                tuple(rng.uniform(0.5, 2.0, k)),
                                10.0 ** rng.uniform(-1.0, 1.0))


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True))
def test_exact_model_music_finds_every_source(geom, seed, u):
    # the phase scan and its FFT size follow mv, so arbitrary arrays
    # cover many polynomial degrees and grid sizes
    co = geometry.difference_coarray(geom)
    hypothesis.assume(co.mv >= 2)
    sc = separated_scenario(geom, seed, u)
    z = model.virtual_observation(co, model.true_covariance(geom, sc))
    for method in ('da', 'ss'):
        est = estimator.run_music(z, co.mv, sc.n_sources, method=method)
        assert est.resolved
        np.testing.assert_allclose(est.angles, sc.doas, rtol=0, atol=1e-6)


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


def sampled_virtual(geom, seed, u, n):
    """z of one Wishart draw of N snapshots, and its random_scenario."""
    sc = random_scenario(geom, seed, u)
    chol = np.linalg.cholesky(model.true_covariance(geom, sc))
    r_hat = model.sample_covariance_draw(chol, n, seed)
    return model.virtual_observation(geometry.difference_coarray(geom),
                                     r_hat), sc


# Conjugating z, or conjugating or row-reversing a noise basis, mirrors
# the null spectrum, phi -> -phi, so the estimate's angles negate and
# reverse. The worst deviation over 117760 estimates of these strategies
# (N from 2 to 1000) was 6.4e-15 rad, with no flag changed.
MIRROR_ATOL = 1e-12


def assert_mirrored(est, other, en, k, negate=True):
    """``other`` is ``est`` with its angles negated and reversed (with
    ``negate``) or unchanged. Only where the k-th and (k + 1)-th minima
    of the scan of ``en`` tie to rounding may the pick, and so the
    flags, differ."""
    n = estimator.scan_size(en.shape[0], np.deg2rad(0.1))
    d = estimator._null_scan(estimator._null_polynomial(en), n)
    depths = np.sort(d[estimator._find_peaks(d)])
    if depths.size > k and depths[k] - depths[k - 1] <= 1e-12 * en.shape[0]:
        return
    angles, refined = other.angles, other.refined
    if negate:
        angles, refined = -angles[::-1], refined[::-1]
    assert other.resolved == est.resolved
    np.testing.assert_array_equal(refined, est.refined)
    np.testing.assert_allclose(angles, est.angles, rtol=0, atol=MIRROR_ATOL)


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True),
                  st.integers(2, 1000))
def test_music_on_the_conjugate_observation_negates_the_estimate(geom, seed,
                                                                 u, n):
    mv = geometry.difference_coarray(geom).mv
    hypothesis.assume(mv >= 2)
    z, sc = sampled_virtual(geom, seed, u, n)
    k = sc.n_sources
    for method, augment in (('da', estimator.augment_direct),
                            ('ss', estimator.augment_spatial_smoothing)):
        est = estimator.run_music(z, mv, k, method)
        other = estimator.run_music(z.conj(), mv, k, method)
        assert_mirrored(est, other, estimator.noise_subspace(augment(z, mv),
                                                             k), k)


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True),
                  st.integers(2, 1000))
def test_music_on_a_mirrored_noise_basis_negates_the_estimate(geom, seed, u,
                                                              n):
    # conj(E_n) and E_n with its rows reversed each mirror the spectrum;
    # together they leave it as it is
    mv = geometry.difference_coarray(geom).mv
    hypothesis.assume(mv >= 2)
    z, sc = sampled_virtual(geom, seed, u, n)
    k = sc.n_sources
    en = estimator.noise_subspace(estimator.augment_direct(z, mv), k)
    est = estimator.estimate_doas(en, k)
    for other in (en.conj(), en[::-1]):
        assert_mirrored(est, estimator.estimate_doas(other, k), en, k)
    assert_mirrored(est, estimator.estimate_doas(en[::-1].conj(), k), en, k,
                    negate=False)


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
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True),
                  st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=4),
                  st.integers(1, 5000))
def test_crb_coefficients_match_whitening_reference(geom, seed, u, snrs, n):
    # one coefficients object serves every noise power of the fan, and
    # the whole fan in one call gives each point's own report
    hypothesis.assume(geometry.difference_coarray(geom).mv >= 2)
    sc = random_scenario(geom, seed, u)
    coeffs = analysis.crb_coefficients(geom, sc)
    noise = [min(sc.powers) * 10.0 ** (-snr / 10.0) for snr in snrs]
    ns = [n + i for i in range(len(snrs))]
    fan = coeffs.reports(noise, ns)
    assert len(fan) == len(snrs)
    for one, s, m in zip(fan, noise, ns):
        point = coeffs.report(s, m)
        np.testing.assert_array_equal(one.fim, point.fim)
        assert one.defined == point.defined
        assert one.jacobian_rank == point.jacobian_rank
        np.testing.assert_array_equal(one.gram_condition,
                                      point.gram_condition)
        if point.defined:
            np.testing.assert_array_equal(one.crb, point.crb)
    try:
        mse = analysis.mse_coefficients(geom, sc)
    except analysis.NumericalFailure:
        pass
    else:
        for one, s, m in zip(mse.mse(noise, ns), noise, ns):
            np.testing.assert_array_equal(one, mse.mse(s, m))
    for s in noise:
        at = dataclasses.replace(sc, noise_power=s)
        got = coeffs.report(s, n)
        want = reference.crb_via_whitening(geom, at, n)
        assert got.defined == want.defined
        assert got.jacobian_rank == want.jacobian_rank
        if want.defined:
            np.testing.assert_allclose(got.crb, want.crb, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(want.crb)))
        again = analysis.crb(geom, at, n)
        np.testing.assert_array_equal(again.fim, got.fim)
        if got.defined:
            np.testing.assert_array_equal(again.crb, got.crb)


# The CRB depends on the sensor differences alone, and negating every
# DOA conjugates the model covariance, so its trace is exactly invariant
# to each move below. Each tolerance is about 20 times the worst
# relative deviation measured over 20000 draws of these strategies:
# shift 6.0e-14, mirror 3.4e-14, negated DOAs 6.6e-15.
CRB_TRACE_RTOL = {'shift': 1e-12, 'mirror': 1e-12, 'negate': 2e-13}


def assert_crb_trace_kept(geom, sc, moved_geom, moved_sc, rtol):
    """The moved array and scenario keep the CRB's definedness, the
    Jacobian rank and, to ``rtol``, the trace."""
    base = analysis.crb(geom, sc, 500)
    moved = analysis.crb(moved_geom, moved_sc, 500)
    assert moved.defined == base.defined
    assert moved.jacobian_rank == base.jacobian_rank
    if base.defined:
        np.testing.assert_allclose(np.trace(moved.crb), np.trace(base.crb),
                                   rtol=rtol, atol=0)


# Neither move of the array changes mv, the virtual-ULA terms or gamma,
# so the closed-form MSE is exactly invariant to both too. Each
# tolerance, relative to the largest diagonal entry, is about 50 times
# the worst deviation measured over 2000 draws of these strategies:
# shift 2.1e-14, mirror 1.4e-14.
MSE_RTOL = {'shift': 1e-12, 'mirror': 1e-12}


def assert_mse_kept(geom, moved_geom, sc, rtol):
    """The moved array keeps :func:`analysis.analytical_mse` to ``rtol``
    of its largest diagonal entry, or its NumericalFailure."""
    try:
        base = analysis.analytical_mse(geom, sc, 500)
    except analysis.NumericalFailure:
        with pytest.raises(analysis.NumericalFailure):
            analysis.analytical_mse(moved_geom, sc, 500)
        return
    np.testing.assert_allclose(analysis.analytical_mse(moved_geom, sc, 500),
                               base, rtol=0,
                               atol=rtol * np.max(np.diag(base)))


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True),
                  st.integers(1, 39))
def test_crb_trace_is_invariant_to_shifting_the_array(geom, seed, u, c):
    hypothesis.assume(geometry.difference_coarray(geom).mv >= 2)
    sc = random_scenario(geom, seed, u)
    shifted = geometry.custom([p + c for p in geom.positions])
    assert_crb_trace_kept(geom, sc, shifted, sc, CRB_TRACE_RTOL['shift'])
    assert_mse_kept(geom, shifted, sc, MSE_RTOL['shift'])


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True))
def test_crb_trace_is_invariant_to_mirroring_the_array(geom, seed, u):
    hypothesis.assume(geometry.difference_coarray(geom).mv >= 2)
    sc = random_scenario(geom, seed, u)
    end = geom.positions[-1]
    mirrored = geometry.custom(sorted(end - p for p in geom.positions))
    assert_crb_trace_kept(geom, sc, mirrored, sc, CRB_TRACE_RTOL['mirror'])
    assert_mse_kept(geom, mirrored, sc, MSE_RTOL['mirror'])


@settings
@hypothesis.given(arrays, seeds, st.floats(0.0, 1.0, exclude_max=True))
def test_crb_trace_is_invariant_to_negating_the_doas(geom, seed, u):
    hypothesis.assume(geometry.difference_coarray(geom).mv >= 2)
    sc = random_scenario(geom, seed, u)
    negated = model.SourceScenario(tuple(-t for t in reversed(sc.doas)),
                                   tuple(reversed(sc.powers)),
                                   sc.noise_power)
    assert_crb_trace_kept(geom, sc, geom, negated, CRB_TRACE_RTOL['negate'])


@settings
@hypothesis.given(
    holey.filter(lambda geom: geometry.difference_coarray(geom).mv >= 3),
    st.floats(-10.0, 30.0), st.integers(20, 5000), st.floats(-50.0, 50.0))
def test_resolution_threshold_matches_full_scan(geom, snr_db, n, center_deg):
    # the threshold polishes the full scan's first crossing bracket; the
    # scan reaches four virtual-array beamwidths, so small coarrays
    # cross inside it too and nearly every draw compares two values.
    # Every float where the verdict turns inside the excess's rounding
    # noise is a root. Sampled around the root, that noise band is up
    # to 4.6e-11 of the threshold wide at 30 dB and N 5000, so two
    # valid roots, bisection's among them, can differ by as much. Near
    # broadside the DOAs change at every float of the separation and
    # the verdict flips back and forth over neighbouring floats, where
    # bisection's own value fails the strict turn; the value is then an
    # end of an adjacent pair with False below and True above.
    center = np.deg2rad(center_deg)
    noise = 10.0 ** (-snr_db / 10.0)
    with pytest.MonkeyPatch.context() as patch:
        brackets = recorded_brackets(patch)
        got = outcome(analysis.resolution_threshold, geom, n, center=center,
                      power=1.0, noise_power=noise)
    check_threshold(got, geom, n, analysis.analytical_mse, center=center,
                    noise_power=noise, rtol=5e-11, strict=False,
                    brackets=brackets)


@settings
@hypothesis.given(st.integers(1, 8), st.lists(st.floats(0.0, 1.0), max_size=4),
                  st.sampled_from([('da',), ('ss',), ('da', 'ss')]), seeds)
def test_trial_records_do_not_depend_on_chunking(n_trials, cuts, methods,
                                                  seed):
    # any split of the trials into contiguous ranges, run one range at
    # a time as a worker does, gives the single-range estimates exactly,
    # NaN rows included
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 25.0]), 0.0)
    point = (geom, sc, 40, methods, seed, 3)
    step = np.deg2rad(0.5)
    serial = harness.run_trials(*point, n_trials, step)
    bounds = sorted({0, n_trials, *(round(c * n_trials) for c in cuts)})
    pieces = [harness._trial_block(*point, step, range(lo, hi))
              for lo, hi in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(pieces, axis=1), serial)


# JSON values a config field might be given, the strings each
# one-of rule reads among them; the field table sorts them into the
# valid and the invalid
SCALARS = (None, True, False, 0, 1, 3, 7, -1, 2 ** 62, 2 ** 62 + 1, 10 ** 400,
           0.5, -0.5, 10.0, -45.0, 90.0, float('nan'), float('inf'), '', 'x',
           'out/run', 'mra:10', 'coprime:2', 'ula:4', 'spiral:4',
           'ula:1000000', *harness._TABLES, *harness._METHODS,
           *harness._FAMILIES, *harness._K_MODES)


def meets_the_table(name, value):
    """Whether ``value``, as a JSON config gives it, is valid for the
    field ``name`` by the field table alone."""
    value = tuple(value) if isinstance(value, list) else value
    try:
        harness._check_field(name, value, *harness._FIELDS[name])
    except harness.ConfigError:
        return False
    return True


def valid_settings(name):
    """Valid values other than the default of a field: one scalar, or a
    list of one. Method 'both' is left out, since efficiency and scaling
    refuse it for running one method."""
    shape, _ = harness._FIELDS[name]
    default = harness.ExperimentConfig.__dataclass_fields__[name].default
    candidates = SCALARS if shape == 'value' else [[v] for v in SCALARS]
    return [v for v in candidates
            if meets_the_table(name, v) and v != 'both'
            and (tuple(v) if isinstance(v, list) else v) != default]


# Every config field but the kind, with its valid non-default values
FIELD_VALUES = {name: valid_settings(name)
                for name in harness._FIELDS if name != 'kind'}
field_settings = st.sampled_from(sorted(FIELD_VALUES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(FIELD_VALUES[name])))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(sorted(harness._TABLES)), field_settings)
def test_a_config_may_set_only_the_fields_its_kind_reads(kind, setting):
    # the table alone decides: a field the kind reads takes the value,
    # any other field is refused by name, and no trial runs either way
    assert set(FIELD_VALUES) | {'kind'} == {
        f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    assert all(FIELD_VALUES.values())
    name, value = setting
    mapping = {'kind': kind, name: value}
    if name in harness._TABLES[kind][2]:
        cfg = harness.ExperimentConfig.from_mapping(mapping)
        want = tuple(value) if isinstance(value, list) else value
        assert getattr(cfg, name) == want
    else:
        with pytest.raises(harness.ConfigError) as info:
            harness.ExperimentConfig.from_mapping(mapping)
        assert str(info.value) == f'{kind} does not read {name}'


# A JSON value of any type, or a list of up to three; a drawn invalid
# value comes as often from the shaped SCALARS, where each rule's edges
# lie, as from anywhere
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=6))
SHAPED = SCALARS + ([],) + tuple([v] for v in SCALARS)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(sorted(harness._TABLES)),
                  st.sampled_from(sorted(harness._FIELDS)), st.data())
def test_a_value_against_its_field_rule_fails_before_any_trial(kind, name,
                                                               data):
    # any field, set on any kind, to a value its rule refuses: run exits
    # 2 with one error line naming the field, before any trial, and
    # leaves no output directory
    invalid = [v for v in SHAPED if not meets_the_table(name, v)]
    value = data.draw(st.one_of(
        st.sampled_from(invalid),
        st.one_of(json_scalars, st.lists(json_scalars, max_size=3)).filter(
            lambda v: not meets_the_table(name, v))), label='value')
    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(
                harness, 'run_trials',
                side_effect=AssertionError('a trial ran')), \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        cfg = os.path.join(tmp, 'cfg.json')
        with open(cfg, 'w', encoding='utf-8') as fh:
            json.dump({'kind': kind, name: value}, fh)
        code = cli.main(['run', '--config', cfg,
                         '--out', os.path.join(tmp, 'out', 'run')])
        assert os.listdir(tmp) == ['cfg.json']
    assert code == 2
    assert out.getvalue() == ''
    err = err.getvalue()
    assert err.startswith('error: ') and err.count('\n') == 1, err
    assert name in err, err
