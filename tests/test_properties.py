"""Property tests of the coarray selection matrix, the augmentations,
exact-model MUSIC, the closed forms and the CRB, the resolution
threshold and the chunking of Monte Carlo trials.

Positions are drawn as random integer sets (mostly with coarray holes)
and as nested arrays (hole-free coarrays). Each property must hold for
every draw.
"""

import dataclasses

import numpy as np
import pytest

from coarray_lab import (analysis, estimator, geometry, harness, model,
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


def separated_scenario(geom, seed, u):
    """1 <= K < mv sources inside +-70 deg, three beamwidths apart.

    One source sits in each equal cell of sin(theta) over
    (-sin 70 deg, sin 70 deg), at least three virtual-array beamwidths
    wavelength / (mv d0) from its neighbours.
    """
    mv = geometry.difference_coarray(geom).mv
    span = 2.0 * np.sin(np.deg2rad(70.0))
    gap = 3.0 * geom.wavelength / (mv * geom.d0)
    k = 1 + int(u * min(mv - 1, int(span / gap)))
    rng = np.random.default_rng(seed)
    width = span / k
    jitter = rng.uniform(-0.5, 0.5, k) * max(width - gap, 0.0)
    sines = -span / 2 + width * (np.arange(k) + 0.5) + jitter
    return model.SourceScenario(tuple(np.arcsin(sines)),
                                tuple(rng.uniform(0.5, 2.0, k)),
                                10.0 ** rng.uniform(-1.0, 1.0))


@settings
@hypothesis.given(arrays, st.booleans(), seeds,
                  st.floats(0.0, 1.0, exclude_max=True))
def test_exact_model_music_finds_every_source(geom, quarter_wave, seed, u):
    # the phase scan and its FFT size follow mv and d0, so arbitrary
    # arrays cover many polynomial degrees and grid sizes
    if quarter_wave:
        geom = dataclasses.replace(geom, d0=geom.wavelength / 4)
    co, f = coarray_and_f(geom)
    hypothesis.assume(co.mv >= 2)
    sc = separated_scenario(geom, seed, u)
    z = model.virtual_observation(f, model.true_covariance(geom, sc))
    for method in ('da', 'ss'):
        est = estimator.run_music(z, co.mv, sc.n_sources, method=method,
                                  d0=geom.d0, wavelength=geom.wavelength)
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


# Valid values other than the default for every config field but the
# kind, as a JSON config gives them; method 'both' is left out, since
# efficiency and scaling refuse it for running one method
FIELD_VALUES = {
    'arrays': (['mra:10'], ['coprime:2', 'ula:4']),
    'snr_db': ([10.0], [-5]),
    'n_snapshots': ([100], [2000]),
    'n_trials': (3, 1000),
    'seed': (0, 7),
    'method': ('da',),
    'out_dir': ('elsewhere', 'out/run'),
    'doas_deg': ([10.0, 20.0], [-30]),
    'center_deg': (10.0, -45),
    'delta_deg': ([1.0], [0.5, 2.0]),
    'k_sources': ([2], [1, 3]),
    'q_range': ([3, 4], [5]),
    'families': (['mra'], ['nested', 'coprime']),
    'k_modes': (['one'], ['m']),
    'grid_step_deg': (0.5, 0.01),
    'power': (2.0, 0.25),
    'empirical': (True,),
}
field_settings = st.sampled_from(sorted(FIELD_VALUES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(FIELD_VALUES[name])))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(sorted(harness._TABLES)), field_settings)
def test_a_config_may_set_only_the_fields_its_kind_reads(kind, setting):
    # the table alone decides: a field the kind reads takes the value,
    # any other field is refused by name, and no trial runs either way
    assert set(FIELD_VALUES) | {'kind'} == {
        f.name for f in dataclasses.fields(harness.ExperimentConfig)}
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
