"""Augmentation and MUSIC estimator tests.

Augmentation oracles are entrywise rebuilds from the definitions; the
estimator itself is checked on exact model covariances, where MUSIC
must localize sources to far below the grid step, and against a scalar
reference implementation on sampled data.
"""

import itertools

import numpy as np
import pytest

from coarray_lab import estimator, geometry, harness, model, reference


def exact_virtual(geom, scenario):
    """Exact z, mv for a scenario on the given array."""
    co = geometry.difference_coarray(geom)
    z = model.virtual_observation(co, model.true_covariance(geom, scenario))
    return z, co.mv


def sampled_virtual(geom, scenario, n, seed):
    co = geometry.difference_coarray(geom)
    y = model.simulate_snapshots(geom, scenario, n, seed=seed)
    return model.virtual_observation(co, model.sample_covariance(y)), co.mv


def test_subarray_select_slices():
    mv = 4
    z = np.arange(2 * mv - 1)
    np.testing.assert_array_equal(reference.subarray_select(z, 1, mv),
                                  [0, 1, 2, 3])
    np.testing.assert_array_equal(reference.subarray_select(z, 3, mv),
                                  [2, 3, 4, 5])
    np.testing.assert_array_equal(reference.subarray_select(z, 4, mv),
                                  [3, 4, 5, 6])
    with pytest.raises(ValueError):
        reference.subarray_select(z, 0, mv)
    with pytest.raises(ValueError):
        reference.subarray_select(z, 5, mv)
    with pytest.raises(ValueError):
        reference.subarray_select(np.arange(6), 1, mv)


def test_augment_direct_entrywise():
    mv = 5
    rng = np.random.default_rng(0)
    z = rng.standard_normal(2 * mv - 1) + 1j * rng.standard_normal(2 * mv - 1)
    aug = estimator.augment_direct(z, mv)
    assert aug.shape == (mv, mv)
    for a in range(mv):
        for c in range(mv):
            assert aug[a, c] == z[mv - 1 + a - c]
    with pytest.raises(ValueError):
        estimator.augment_direct(z[:-1], mv)


def test_augment_direct_is_hermitian_toeplitz_on_symmetric_z():
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr((-0.4, 0.3), 5.0)
    z, mv = exact_virtual(geom, sc)
    rv = estimator.augment_direct(z, mv)
    np.testing.assert_allclose(rv, rv.conj().T, rtol=0, atol=1e-14)
    for off in range(1 - mv, mv):
        diag = np.diagonal(rv, offset=off)
        np.testing.assert_allclose(diag, diag[0], rtol=0, atol=1e-15)


def test_spatial_smoothing_matches_subarray_sum():
    mv = 6
    rng = np.random.default_rng(1)
    z = rng.standard_normal(2 * mv - 1) + 1j * rng.standard_normal(2 * mv - 1)
    acc = np.zeros((mv, mv), dtype=complex)
    for i in range(1, mv + 1):
        zi = reference.subarray_select(z, i, mv)
        acc += np.outer(zi, zi.conj())
    aug = estimator.augment_spatial_smoothing(z, mv)
    np.testing.assert_allclose(aug, acc / mv, rtol=1e-14)
    with pytest.raises(ValueError):
        estimator.augment_spatial_smoothing(z[:-1], mv)


def test_smoothed_equals_scaled_square_of_direct():
    # Rv2 = Rv1^2 / mv whenever z is conjugate-symmetric, sample data
    # included, because the subarrays are the reversed columns of Rv1
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 10.0, 45.0]), 0.0)
    for z, mv in (exact_virtual(geom, sc),
                  sampled_virtual(geom, sc, 200, seed=3)):
        rv1 = estimator.augment_direct(z, mv)
        rv2 = estimator.augment_spatial_smoothing(z, mv)
        np.testing.assert_allclose(rv2, rv1 @ rv1 / mv, rtol=1e-12)


def test_gamma_stack_reproduces_direct_augmentation():
    mv = 7
    rng = np.random.default_rng(2)
    z = rng.standard_normal(2 * mv - 1) + 1j * rng.standard_normal(2 * mv - 1)
    gamma = reference.gamma_stack(mv)
    assert gamma.shape == (mv * mv, 2 * mv - 1)
    rv1 = estimator.augment_direct(z, mv)
    np.testing.assert_array_equal(gamma @ z, model.vec(rv1))
    # every row selects exactly one entry
    np.testing.assert_array_equal(gamma.sum(axis=1), np.ones(mv * mv))


def test_noise_subspace_annihilates_virtual_steering():
    geom = geometry.nested(4, 6)
    sc = model.SourceScenario.with_snr(np.deg2rad([-30.0, 5.0, 40.0]), 10.0)
    z, mv = exact_virtual(geom, sc)
    for method in ('da', 'ss'):
        aug = (estimator.augment_direct(z, mv) if method == 'da'
               else estimator.augment_spatial_smoothing(z, mv))
        en = estimator.noise_subspace(aug, sc.n_sources)
        assert en.shape == (mv, mv - sc.n_sources)
        np.testing.assert_allclose(en.conj().T @ en,
                                   np.eye(mv - sc.n_sources),
                                   rtol=0, atol=1e-12)
        for theta in sc.doas:
            a_v = np.exp(1j * np.pi * np.sin(theta) * np.arange(mv))
            assert np.linalg.norm(en.conj().T @ a_v) < 1e-8


def test_noise_subspace_validates_source_count():
    rv = np.eye(5, dtype=complex)
    with pytest.raises(ValueError):
        estimator.noise_subspace(rv, 0)
    with pytest.raises(ValueError):
        estimator.noise_subspace(rv, 5)


def test_exact_covariance_music_is_sharp():
    geom = geometry.coprime(3, 5)
    truth = np.deg2rad([-20.0, 10.0, 45.0])
    sc = model.SourceScenario.with_snr(truth, 0.0)
    z, mv = exact_virtual(geom, sc)
    for method in ('da', 'ss'):
        est = estimator.run_music(z, mv, 3, method=method)
        assert est.resolved
        assert np.all(np.diff(est.angles) > 0)
        np.testing.assert_allclose(est.angles, truth, rtol=0, atol=1e-6)


def test_more_sources_than_sensors_on_exact_data():
    # the whole point of the coarray: K can exceed M
    geom = geometry.coprime(2)  # 6 sensors, mv = 8
    truth = np.deg2rad(np.linspace(-60.0, 60.0, 7))
    sc = model.SourceScenario.with_snr(truth, 0.0)
    z, mv = exact_virtual(geom, sc)
    est = estimator.run_music(z, mv, 7, method='ss')
    assert est.resolved
    np.testing.assert_allclose(est.angles, truth, rtol=0, atol=1e-5)


def test_merged_pair_keeps_one_true_null():
    # at sub-grid separation the two nulls merge; the second reported
    # peak is then a sidelobe far from the truth, which downstream
    # error gating treats as a failed trial
    geom = geometry.coprime(3, 5)
    truth = (0.0, np.deg2rad(0.02))
    sc = model.SourceScenario.with_snr(truth, 0.0)
    z, mv = exact_virtual(geom, sc)
    est = estimator.run_music(z, mv, 2, method='ss')
    errors = np.abs(est.angles[:, None] - np.asarray(truth)[None, :])
    assert errors.min() < np.deg2rad(0.05)
    assert errors.max() > np.deg2rad(1.0)


def test_peakless_spectrum_reports_unresolved():
    # the noise eigenvector (1, 1) / sqrt(2) gives d(phi) = 1 + cos(phi):
    # its one null, at phi = pi, is endfire and found, so a second
    # source has no peak
    u = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    en = estimator.noise_subspace(np.outer(u, u.conj()), 1)
    est = estimator.estimate_doas(en, 1)
    assert est.resolved
    np.testing.assert_allclose(np.abs(est.angles), np.pi / 2, rtol=0,
                               atol=1e-6)
    en = np.array([[1.0], [1.0], [0.0]], dtype=complex) / np.sqrt(2.0)
    est = estimator.estimate_doas(en, 2)
    assert not est.resolved
    assert est.angles.shape == est.refined.shape == (1,)


def test_newton_step_out_of_its_cell_keeps_the_grid_phase():
    # one source on mv = 4 with the signal vector u: the null spectrum
    # is d(phi) = 4 - |u^H a(phi)|^2 / |u|^2. At a 1 rad step the scan
    # takes n = 8 phases, and its one grid minimum is phi = pi / 4. The
    # Newton steps from there end over a hundred cells away, so the
    # estimate keeps the grid phase and flags it unrefined
    u = np.array([1.0, -1j, 2.0 - 1j, 1.0 + 1j])
    p = np.eye(4) - np.outer(u, u.conj()) / np.vdot(u, u).real
    en = np.linalg.eigh(p)[1][:, 1:]
    assert estimator.scan_size(4, 1.0) == 8
    coef = estimator._null_polynomial(en)
    phi, refined = estimator._newton_minima(coef, np.array([np.pi / 4]),
                                            np.pi / 4)
    assert not refined.any()
    assert phi.tolist() == [np.pi / 4]
    est = estimator.estimate_doas(en, 1, grid_step=1.0)
    assert est.resolved
    assert not est.refined.any()
    # sin(theta) = phi / pi
    np.testing.assert_allclose(est.angles, [np.arcsin(0.25)], rtol=0,
                               atol=1e-15)


def fold_endfire(theta):
    """Angles with both images of an endfire phase, +-theta, as |theta|."""
    theta = np.asarray(theta)
    return np.sort(np.where(np.abs(theta) > np.deg2rad(89.0), np.abs(theta),
                            theta))


@pytest.mark.parametrize('doas_deg, interior', [
    ((-89.99,), False), ((89.99,), False), ((-89.99, 10.0), False),
    ((-85.0,), True), ((30.0,), True), ((-89.9,), False)])
def test_endfire_source_is_flagged(doas_deg, interior):
    # the phase scan covers the whole circle, so an endfire source is
    # found and resolved, but +-90 deg share phi = +-pi and it may come
    # back on either side
    truth = np.deg2rad(doas_deg)
    sc = model.SourceScenario.with_snr(truth, 10.0)
    z, mv = exact_virtual(geometry.coprime(3, 5), sc)
    for method in ('da', 'ss'):
        est = estimator.run_music(z, mv, len(doas_deg), method=method)
        assert est.resolved
        if interior:
            np.testing.assert_allclose(est.angles, truth, rtol=0, atol=1e-6)
        else:
            np.testing.assert_allclose(fold_endfire(est.angles),
                                       fold_endfire(truth), rtol=0,
                                       atol=1e-6)


def test_direct_and_smoothed_share_noise_projector():
    geom = geometry.mra(10)
    sc = model.SourceScenario.with_snr(np.deg2rad([-15.0, 20.0]), 0.0)
    z, mv = exact_virtual(geom, sc)
    en_da = estimator.noise_subspace(estimator.augment_direct(z, mv), 2)
    en_ss = estimator.noise_subspace(
        estimator.augment_spatial_smoothing(z, mv), 2)
    proj_da = en_da @ en_da.conj().T
    proj_ss = en_ss @ en_ss.conj().T
    np.testing.assert_allclose(proj_da, proj_ss, rtol=0, atol=1e-9)


def test_direct_and_smoothed_estimates_agree_on_sample_data():
    # with a positive direct-augmentation spectrum both orderings of
    # the shared eigenvectors coincide, so the estimates match exactly
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-10.0, 15.0]), 0.0)
    worst = 0.0
    for trial in range(25):
        z, mv = sampled_virtual(geom, sc, 500, seed=900 + trial)
        da = estimator.run_music(z, mv, 2, method='da')
        ss = estimator.run_music(z, mv, 2, method='ss')
        assert da.resolved and ss.resolved
        worst = max(worst, np.max(np.abs(da.angles - ss.angles)))
    assert worst < 1e-10


def test_run_music_rejects_unknown_method():
    z = np.zeros(9, dtype=complex)
    with pytest.raises(ValueError):
        estimator.run_music(z, 5, 1, method='esprit')


def test_music_spectrum_inverts_null_power():
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr((-0.3, 0.4), 0.0)
    z, mv = exact_virtual(geom, sc)
    en = estimator.noise_subspace(estimator.augment_spatial_smoothing(z, mv), 2)
    grid = np.deg2rad(np.linspace(-80, 80, 33))
    spec = reference.music_spectrum(en, grid)
    assert np.all(spec > 0)
    a = np.exp(1j * np.pi * np.outer(np.arange(mv), np.sin(grid)))
    null = np.sum(np.abs(en.conj().T @ a) ** 2, axis=0)
    np.testing.assert_allclose(spec, 1.0 / null, rtol=1e-12)


def test_estimate_doas_rejects_a_mismatched_basis():
    en = estimator.noise_subspace(np.eye(5, dtype=complex), 2)
    estimator.estimate_doas(en, 2)
    for basis, k in ((en, 1), (en, 3), (en[:, :0], 5), (en[:, :1], 5),
                     (en[:, 0], 2), (np.zeros((1, 0)), 1)):
        with pytest.raises(ValueError, match='basis'):
            estimator.estimate_doas(basis, k)


def test_default_grid_bounds():
    grid = estimator.default_grid(np.deg2rad(1.0))
    assert grid[0] > -np.pi / 2
    assert grid[-1] < np.pi / 2
    np.testing.assert_allclose(np.diff(grid), np.deg2rad(1.0), rtol=1e-12)
    for bad in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match='grid step'):
            estimator.default_grid(bad)


def test_estimate_doas_checks_its_grid_step():
    sc = model.SourceScenario.with_snr((-0.3, 0.4), 0.0)
    z, mv = exact_virtual(geometry.coprime(2), sc)
    en = estimator.noise_subspace(estimator.augment_direct(z, mv), 2)
    step = np.deg2rad(0.5)
    as_float = estimator.estimate_doas(en, 2, grid_step=step)
    as_array = estimator.estimate_doas(en, 2, grid_step=np.asarray(step))
    np.testing.assert_array_equal(as_array.angles, as_float.angles)
    np.testing.assert_allclose(as_float.angles, sc.doas, rtol=0, atol=1e-6)
    # 1e-300 asks for an FFT of about 2^997 points: it fails on the
    # ceiling, before anything is allocated
    for bad in (0.0, -0.1, np.inf, np.nan, 1e-300, 5e-324):
        with pytest.raises(ValueError, match='grid step'):
            estimator.estimate_doas(en, 2, grid_step=bad)


def test_estimate_doas_raises_on_every_call_with_a_bad_grid_step():
    sc = model.SourceScenario.with_snr((-0.3, 0.4), 0.0)
    z, mv = exact_virtual(geometry.coprime(2), sc)
    en = estimator.noise_subspace(estimator.augment_direct(z, mv), 2)
    for bad in (0.0, -0.1, np.inf, np.nan, 1e-300, 5e-324):
        for _ in range(2):
            with pytest.raises(ValueError, match='grid step'):
                estimator.estimate_doas(en, 2, grid_step=bad)
            with pytest.raises(ValueError, match='grid step'):
                estimator.run_music(z, mv, 2, method='ss', grid_step=bad)
    # the message names the value as given, not as its float
    for bad, shown in ((0, 'got 0$'), (np.asarray(-2), 'got -2$')):
        for _ in range(2):
            with pytest.raises(ValueError, match=shown):
                estimator.estimate_doas(en, 2, grid_step=bad)


# Every memo of the estimator module: each is a function of scalars.
ESTIMATOR_MEMOS = (estimator._unitary_gather, estimator._lag_powers)


def test_memoized_arrays_give_the_estimates_of_fresh_ones():
    arrays = (geometry.coprime(3, 5), geometry.nested(2, 3))
    # each step as a float, an np.float64 or a 0-d array
    fine, coarse = np.deg2rad(0.1), np.deg2rad(0.5)
    steps = (float(fine), np.float64(fine), np.asarray(coarse),
             float(coarse))
    rng = np.random.default_rng(23)
    calls = []
    for round_ in range(3):
        for geom, step in itertools.product(arrays, steps):
            # every other pair has an endfire source
            doas = rng.uniform(-1.4, 1.4, 2)
            if len(calls) % 2:
                doas[0] = rng.choice((-1.0, 1.0)) * np.deg2rad(89.99)
            sc = model.SourceScenario.with_snr(np.sort(doas), 10.0)
            z, mv = sampled_virtual(geom, sc, 200, seed=round_)
            calls.append((z, mv, step))

    def estimates(z, mv, step):
        en = estimator.noise_subspace(estimator.augment_direct(z, mv), 2)
        return [estimator.estimate_doas(en, 2, step),
                *(estimator.run_music(z, mv, 2, method, grid_step=step)
                  for method in ('da', 'ss'))]

    def assert_same(ests, others):
        for est, other in zip(ests, others, strict=True):
            assert other.resolved == est.resolved
            np.testing.assert_array_equal(other.angles, est.angles)
            np.testing.assert_array_equal(other.refined, est.refined)

    for memo in ESTIMATOR_MEMOS:
        memo.cache_clear()
    warm = [estimates(*call) for call in calls]
    endfire = 0
    for (z, mv, step), memoized in zip(calls, warm):
        # the step as each other type gives the same estimates
        for typed in (float, np.float64, np.asarray):
            estimator._TRIAL_CACHE.clear()
            assert_same(memoized, estimates(z, mv, typed(step)))
        for memo in ESTIMATOR_MEMOS:
            memo.cache_clear()
        estimator._TRIAL_CACHE.clear()
        assert_same(memoized, estimates(z, mv, step))
        endfire += bool(np.any(np.abs(memoized[0].angles)
                               > np.deg2rad(89.0)))
    assert endfire > 0, endfire


def test_memoized_arrays_are_read_only():
    arrays = [*estimator._unitary_gather(5), *estimator._lag_powers(5)]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1


def test_scan_size_stops_at_its_ceiling():
    # a step of 2^-19 rad is 2^20 phases a cycle
    assert estimator.scan_size(8, np.deg2rad(0.1)) == 2048
    assert estimator.scan_size(8, 2.0 ** -19) == estimator.MAX_SCAN_SIZE
    assert estimator.scan_size(40, 1.0) == 128  # at least 2 mv phases
    for step in (np.nextafter(2.0 ** -19, 0.0), 1e-300):
        with pytest.raises(ValueError, match='scan phases'):
            estimator.scan_size(8, step)


def test_null_scan_reads_the_circle_from_minus_half_to_half_plus_one():
    rng = np.random.default_rng(41)
    for mv, step in ((2, 1.0), (5, 0.01), (8, np.deg2rad(0.1)), (40, 1.0),
                     (13, 2.0 ** -19)):
        n = estimator.scan_size(mv, step)
        basis, _ = np.linalg.qr(rng.standard_normal((mv, mv))
                                + 1j * rng.standard_normal((mv, mv)))
        coef = estimator._null_polynomial(basis[:, :mv - 1])
        wrapped = np.fft.irfft(coef, n, norm='forward')[
            np.arange(-(n // 2), n // 2 + 2) % n]
        np.testing.assert_array_equal(estimator._null_scan(coef, n), wrapped)


# Dense references for estimate_doas: the null
# power ||E_n^H a||^2 with explicit steering vectors a, on a circle of
# phases four times finer than the scan's and on a fine angle window
# around each estimate. The estimator evaluates the same null spectrum
# as a trigonometric polynomial by FFT and refines it by Newton steps.

def reference_null_power(en, phi):
    a = np.exp(1j * np.outer(np.arange(en.shape[0]), phi))
    return np.sum(np.abs(en.conj().T @ a) ** 2, axis=0)


def reference_minima_count(en, n=8192):
    """Circular local minima of the null power on n phases."""
    d = reference_null_power(en, 2.0 * np.pi * np.arange(n) / n)
    return np.count_nonzero((d < np.roll(d, 1)) & (d <= np.roll(d, -1)))


def reference_window_minimum(en, theta, half_width=5e-5, points=1001):
    """Angle of least null power on a uniform window around theta.

    NaN when that angle is an end of the window.
    """
    window = theta + np.linspace(-half_width, half_width, points)
    best = np.argmin(reference_null_power(en, np.pi * np.sin(window)))
    return window[best] if 0 < best < points - 1 else np.nan


EQUIVALENCE_SCENES = {
    'fan11': harness._DEFAULT_VERIFY_DOAS_DEG,
    'single': (30.0,),
    'pair2.0': (29.0, 31.0),
    'pair0.4': (29.8, 30.2),
}


@pytest.mark.parametrize('spec', ['coprime:3,5', 'nested:4,6', 'mra:10'])
def test_polynomial_estimator_matches_scalar_reference(spec):
    geom = harness._parse_array(spec)
    co = geometry.difference_coarray(geom)
    mv = co.mv
    # the scanned phases 2 pi i / n, i = -n / 2 .. n / 2 + 1, and their
    # angles: at the default 0.1 deg step the broadside phase step is
    # 2 pi / 1146, so n = 2048
    n_grid = 2048
    phi = 2.0 * np.pi * np.arange(-(n_grid // 2), n_grid // 2 + 2) / n_grid
    grid = np.arcsin((np.pi - (np.pi - phi) % (2.0 * np.pi)) / np.pi)
    for scene, doas_deg in EQUIVALENCE_SCENES.items():
        for snr in (-5.0, 0.0, 10.0):
            sc = model.SourceScenario.with_snr(np.deg2rad(doas_deg), snr)
            for n in (100, 1000):
                for seed in (11, 12, 13):
                    y = model.simulate_snapshots(geom, sc, n, seed=seed)
                    z = model.virtual_observation(
                        co, model.sample_covariance(y))
                    for method in ('da', 'ss'):
                        aug = (estimator.augment_direct(z, mv)
                               if method == 'da' else
                               estimator.augment_spatial_smoothing(z, mv))
                        k = sc.n_sources
                        en = estimator.noise_subspace(aug, k)
                        est = estimator.estimate_doas(en, k)
                        label = (scene, snr, n, seed, method)
                        assert est.resolved == (
                            reference_minima_count(en) >= k), label
                        assert est.refined.all(), label
                        best = np.array([reference_window_minimum(en, t)
                                         for t in est.angles])
                        err = np.abs(est.angles - best)
                        assert np.all(err <= 1e-5), (label, err.max())
                        # the FFT null spectrum is 1 / music_spectrum
                        null = estimator._null_scan(
                            estimator._null_polynomial(en), n_grid)
                        ref_null = 1.0 / reference.music_spectrum(en, grid)
                        np.testing.assert_allclose(null, ref_null, rtol=0,
                                                   atol=1e-12 * mv)


# Reference for the shared eigensystem: each method decomposes its own
# complex augmentation, SS the spatially smoothed matrix, then scans it.

SHARED_ARRAYS = ('coprime:3,5', 'nested:4,6', 'mra:10')


@pytest.mark.parametrize('spec', SHARED_ARRAYS)
def test_shared_eigensystem_matches_separate_decompositions(spec):
    geom = harness._parse_array(spec)
    co = geometry.difference_coarray(geom)
    mv = co.mv
    shared = differing = 0
    for k in (1, 2, mv // 2, mv - 1):
        doas = np.deg2rad(np.linspace(-60.0, 60.0, k) if k > 1 else (20.0,))
        for snr in (-10.0, 0.0, 10.0, 20.0, 30.0):
            sc = model.SourceScenario.with_snr(doas, snr)
            for n, seed in itertools.product((10, 50, 500), (7, 8)):
                y = model.simulate_snapshots(geom, sc, n, seed=seed)
                z = model.virtual_observation(co,
                                              model.sample_covariance(y))
                da = estimator.run_music(z, mv, k, method='da')
                ss = estimator.run_music(z, mv, k, method='ss')
                ref_da = estimator.estimate_doas(estimator.noise_subspace(
                    estimator.augment_direct(z, mv), k), k)
                ref_ss = estimator.estimate_doas(estimator.noise_subspace(
                    estimator.augment_spatial_smoothing(z, mv), k), k)
                label = (k, snr, n, seed)
                # run_music decomposes the real unitary image of Rv1,
                # so DA agrees to rounding, not bit for bit
                assert da.resolved == ref_da.resolved, label
                np.testing.assert_array_equal(da.refined, ref_da.refined,
                                              err_msg=str(label))
                err = np.abs(da.angles - ref_da.angles)
                assert np.all(err <= 1e-10), (label, err.max())
                assert ss.resolved == ref_ss.resolved, label
                np.testing.assert_array_equal(ss.refined, ref_ss.refined,
                                              err_msg=str(label))
                err = np.abs(ss.angles - ref_ss.angles)
                assert np.all(err <= 1e-8), (label, err.max())
                # one scan when both methods pick the same eigenvectors
                if ss is da:
                    shared += 1
                else:
                    differing += 1
    assert shared > 0 and differing > 0, (shared, differing)


def test_smoothed_estimate_does_not_depend_on_the_direct_call():
    geom = geometry.nested(4, 6)
    sc = model.SourceScenario.with_snr(np.deg2rad(np.linspace(-60, 60, 15)),
                                       -10.0)
    for seed in range(6):
        z, mv = sampled_virtual(geom, sc, 10, seed=seed)
        estimator._TRIAL_CACHE.clear()
        alone = estimator.run_music(z, mv, 15, method='ss')
        estimator._TRIAL_CACHE.clear()
        estimator.run_music(z, mv, 15, method='da')
        beside = estimator.run_music(z, mv, 15, method='ss')
        assert alone.resolved == beside.resolved
        np.testing.assert_array_equal(alone.angles, beside.angles)
        np.testing.assert_array_equal(alone.refined, beside.refined)


def test_run_music_decomposes_once_per_input(monkeypatch):
    calls = []
    real = estimator.noise_subspace

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimator, 'noise_subspace', spy)
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-10.0, 15.0]), 0.0)
    z, mv = sampled_virtual(geom, sc, 500, seed=3)
    da = estimator.run_music(z, mv, 2, method='da')
    ss = estimator.run_music(z, mv, 2, method='ss')
    assert ss is da
    assert len(calls) == 1
    with pytest.raises(ValueError):
        da.angles[0] = 0.0
    # the keywords are named; a default passed explicitly, here as a 0-d
    # array, is the same input, and another grid step another one
    for removed in ({'refine_iters': 4}, {'return_spectrum': True}):
        with pytest.raises(TypeError):
            estimator.run_music(z, mv, 2, method='ss', **removed)
    step = np.asarray(np.deg2rad(0.1))
    again = estimator.run_music(z, mv, 2, method='ss', grid_step=step)
    assert again is da
    assert len(calls) == 1
    coarse = estimator.run_music(z, mv, 2, method='da', grid_step=0.01)
    assert len(calls) == 2
    np.testing.assert_allclose(coarse.angles, da.angles, rtol=0, atol=1e-4)


def test_noise_columns_rank_by_method():
    values = np.array([-3.0, -0.5, 0.2, 1.0, 4.0])
    assert estimator._noise_columns(values, 2, 'da') == (0, 1, 2)
    assert estimator._noise_columns(values, 2, 'ss') == (1, 2, 3)
    assert estimator._noise_columns(values, 3, 'ss') == (1, 2)
    rv = np.diag(values).astype(complex)
    en, vals, vecs = estimator.noise_subspace(rv, 2, return_eigensystem=True)
    np.testing.assert_array_equal(vals, values)
    np.testing.assert_array_equal(en, vecs[:, :3])


# The real form of the direct augmentation: T = Q^H Rv1 Q for the
# sparse unitary Q of Lee (1980), against a dense Q built here.

def lee_unitary(mv):
    """Dense Q = [[I, 0, jI], [0, sqrt(2), 0], [J, 0, -jJ]] / sqrt(2)."""
    p = mv // 2
    eye, exchange = np.eye(p), np.eye(p)[::-1]
    q = np.zeros((mv, mv), dtype=complex)
    q[:p, :p], q[:p, mv - p:] = eye, 1j * eye
    q[mv - p:, :p], q[mv - p:, mv - p:] = exchange, -1j * exchange
    if mv % 2:
        q[p, p] = np.sqrt(2.0)
    return q / np.sqrt(2.0)


def conjugate_symmetric(mv, rng):
    """A random z with z[mv - 1 - l] = conj(z[mv - 1 + l]), z[mv - 1] real."""
    lags = rng.standard_normal(mv) + 1j * rng.standard_normal(mv)
    lags[0] = lags[0].real
    return np.concatenate((lags[:0:-1].conj(), lags))


@pytest.mark.parametrize('mv', [2, 3, 4, 5, 6, 7, 8, 9, 18, 30, 36])
def test_real_form_is_the_unitary_image_of_the_direct_augmentation(mv):
    rng = np.random.default_rng(mv)
    q = lee_unitary(mv)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(mv), rtol=0,
                               atol=1e-15)
    for _ in range(5):
        z = conjugate_symmetric(mv, rng)
        rv = estimator.augment_direct(z, mv)
        image = q.conj().T @ rv @ q
        t = estimator._real_augmentation(z, mv)
        scale = np.linalg.norm(rv)
        assert t.dtype == np.float64
        np.testing.assert_array_equal(t, t.T)
        np.testing.assert_allclose(image.imag, 0.0, rtol=0,
                                   atol=1e-15 * scale)
        np.testing.assert_allclose(t, image.real, rtol=0,
                                   atol=1e-15 * scale)
        values, vectors = np.linalg.eigh(t)
        expected = np.linalg.eigvalsh(rv)
        np.testing.assert_allclose(values, expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())
        en = estimator._unitary_basis(vectors)
        np.testing.assert_allclose(en, q @ vectors, rtol=0, atol=1e-15)
        np.testing.assert_allclose(en.conj().T @ en, np.eye(mv), rtol=0,
                                   atol=1e-13)
        np.testing.assert_allclose(rv @ en, en * values, rtol=0,
                                   atol=1e-13 * scale)


def test_real_form_reads_only_the_lags_at_or_above_zero():
    # on any z, T is the image of the Hermitian matrix of Rv1's lower
    # triangle, which is all that a Hermitian eigensolver reads
    rng = np.random.default_rng(5)
    for mv in (1, 2, 7, 8):
        z = rng.standard_normal(2 * mv - 1) + 1j * rng.standard_normal(
            2 * mv - 1)
        lower = np.tril(estimator.augment_direct(z, mv))
        hermitian = lower + np.tril(lower, -1).conj().T
        hermitian[np.diag_indices(mv)] = lower.diagonal().real
        q = lee_unitary(mv)
        np.testing.assert_allclose(estimator._real_augmentation(z, mv),
                                   (q.conj().T @ hermitian @ q).real,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize('geom', [geometry.coprime(3, 5),
                                  geometry.nested(2, 3), geometry.ula(7)],
                         ids=['coprime35', 'nested23', 'ula7'])
def test_run_music_reads_only_the_lags_at_or_above_zero(geom):
    rng = np.random.default_rng(31)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 35.0]), 0.0)
    for seed in range(4):
        z, mv = sampled_virtual(geom, sc, 200, seed=seed)
        scrambled = z.copy()
        scrambled[:mv - 1] = rng.standard_normal(mv - 1) * 1e3 + 1j
        for method in ('da', 'ss'):
            estimator._TRIAL_CACHE.clear()
            want = estimator.run_music(z, mv, 2, method)
            estimator._TRIAL_CACHE.clear()
            got = estimator.run_music(scrambled, mv, 2, method)
            assert got.resolved == want.resolved
            np.testing.assert_array_equal(got.angles, want.angles)
            np.testing.assert_array_equal(got.refined, want.refined)


def test_run_music_rejects_a_virtual_observation_of_the_wrong_length():
    rng = np.random.default_rng(8)
    for mv in (7, 8):
        z = rng.standard_normal(2 * mv - 1) + 0j
        for bad in (z[:-1], np.append(z, 0.0), z[:mv]):
            estimator._TRIAL_CACHE.clear()
            for method in ('da', 'ss'):
                with pytest.raises(ValueError,
                                   match=f'must have length {2 * mv - 1},'):
                    estimator.run_music(bad, mv, 2, method)
