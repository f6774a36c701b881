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

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def exact_virtual(geom, scenario):
    """Exact z, mv for a scenario on the given array."""
    co = geometry.difference_coarray(geom)
    f = geometry.selection_matrix(co)
    z = model.virtual_observation(f, model.true_covariance(geom, scenario))
    return z, co.mv


def sampled_virtual(geom, scenario, n, seed):
    co = geometry.difference_coarray(geom)
    f = geometry.selection_matrix(co)
    y = model.simulate_snapshots(geom, scenario, n, seed=seed)
    return model.virtual_observation(f, model.sample_covariance(y)), co.mv


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
    # noise eigenvector equal to the broadside response pushes the
    # spectrum nulls to the scan edges, leaving no interior peak
    u = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    en = estimator.noise_subspace(np.outer(u, u.conj()), 1)
    est = estimator.estimate_doas(en, 1)
    assert not est.resolved
    assert est.angles.shape == (0,)
    assert est.refined.shape == (0,)


@pytest.mark.parametrize('doas_deg, resolved', [
    ((-89.99,), False), ((89.99,), False), ((-89.99, 10.0), False),
    ((-85.0,), True), ((30.0,), True)])
def test_endfire_source_is_flagged(doas_deg, resolved):
    # the grid stops short of +-90 deg, so an endfire source has no
    # interior null; a spurious peak near +-57 deg stands in for it
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad(doas_deg), 10.0)
    z, mv = exact_virtual(geom, sc)
    for method in ('da', 'ss'):
        est = estimator.run_music(z, mv, len(doas_deg), method=method)
        assert est.resolved is resolved
        if resolved:
            np.testing.assert_allclose(est.angles, np.deg2rad(doas_deg),
                                       rtol=0, atol=1e-6)


def test_nondefault_spacing_round_trip():
    # quarter-wavelength physical array; the estimator must be told
    geom = geometry.coprime(2, d0=0.25, wavelength=1.0)
    truth = np.deg2rad([-35.0, 25.0])
    sc = model.SourceScenario.with_snr(truth, 0.0)
    z, mv = exact_virtual(geom, sc)
    est = estimator.run_music(z, mv, 2, method='ss', d0=0.25, wavelength=1.0)
    assert est.resolved
    np.testing.assert_allclose(est.angles, truth, rtol=0, atol=1e-6)


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


def test_grid_table_is_shared_and_read_only():
    estimator._grid_table.cache_clear()
    step = np.deg2rad(0.5)
    grid, table = estimator._grid_table(7, step, 0.5)
    assert table.shape == (6, grid.shape[0])
    for arr in (grid, table):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # estimate_doas passes a 0-d array step on as the equal float
    en = estimator.noise_subspace(np.eye(7, dtype=complex), 2)
    estimator.estimate_doas(en, 2, grid_step=np.asarray(step))
    assert estimator._grid_table.cache_info().hits == 1
    assert estimator._grid_table.cache_info().currsize == 1
    for other in ((8, step, 0.5), (7, step / 2, 0.5), (7, step, 0.25)):
        assert estimator._grid_table(*other)[1] is not table
    assert estimator._grid_table.cache_info().currsize == 4


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


# Scalar reference for estimate_doas: the grid scan evaluates
# ||E_n^H a||^2 directly and each peak is refined on its own, one
# null-power evaluation per call. The estimator evaluates the same
# null spectrum as a trigonometric polynomial on all peaks at once.

def reference_null_power(en, theta, rate):
    a = np.exp(1j * rate * np.sin(theta) * np.arange(en.shape[0]))
    e = en.conj().T @ a
    return float(np.real(e @ e.conj()))


def reference_parabola_vertex(x_mid, h, y0, y1, y2):
    den = y0 - 2.0 * y1 + y2
    if den <= 0:
        return None
    vertex = x_mid - 0.5 * h * (y2 - y0) / den
    if abs(vertex - x_mid) > h:
        return None
    return vertex


def reference_refine_peak(dfun, theta, step, d_left, d_mid, d_right, iters):
    candidates = [(d_mid, theta)]
    vertex = reference_parabola_vertex(theta, step, d_left, d_mid, d_right)
    if vertex is not None:
        candidates.append((dfun(vertex), vertex))
    a, b = theta - step, theta + step
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = dfun(c), dfun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = dfun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = dfun(d)
    candidates.append((fc, c))
    candidates.append((fd, d))
    mid, h = 0.5 * (a + b), 0.5 * (b - a)
    if h > 0:
        y0, y1, y2 = dfun(mid - h), dfun(mid), dfun(mid + h)
        candidates.append((y1, mid))
        polish = reference_parabola_vertex(mid, h, y0, y1, y2)
        if polish is not None:
            candidates.append((dfun(polish), polish))
    _, best_theta = min(candidates, key=lambda it: (it[0], it[1]))
    return best_theta, best_theta != theta


def reference_estimate(rv, k, grid_step=np.deg2rad(0.1)):
    """(angles, resolved, refined) of the scalar path, d0 = wavelength / 2."""
    en = estimator.noise_subspace(rv, k)
    mv = en.shape[0]
    rate = np.pi
    grid = estimator.default_grid(grid_step)
    a_grid = np.exp(1j * np.outer(np.arange(mv), rate * np.sin(grid)))
    d = np.sum(np.abs(en.conj().T @ a_grid) ** 2, axis=0)
    peaks = estimator._find_peaks(d)
    kept = peaks[np.lexsort((grid[peaks], d[peaks]))[:k]]
    dfun = lambda theta: reference_null_power(en, theta, rate)
    found = [reference_refine_peak(dfun, grid[i], grid_step, d[i - 1], d[i],
                                   d[i + 1], estimator._REFINE_ITERS)
             for i in kept]
    angles = np.array([t for t, _ in found])
    refined = np.array([f for _, f in found], dtype=bool)
    order = np.argsort(angles)
    resolved = kept.shape[0] == k
    if resolved:
        # a null still falling at a grid edge, below the weakest kept peak
        weakest = max(d[i] for i in kept)
        for edge, inner in ((d[0], d[1]), (d[-1], d[-2])):
            if edge < inner and edge < weakest:
                resolved = False
    return angles[order], resolved, refined[order]


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
    f = geometry.selection_matrix(co)
    mv = co.mv
    for scene, doas_deg in EQUIVALENCE_SCENES.items():
        for snr in (-5.0, 0.0, 10.0):
            sc = model.SourceScenario.with_snr(np.deg2rad(doas_deg), snr)
            for n in (100, 1000):
                for seed in (11, 12, 13):
                    y = model.simulate_snapshots(geom, sc, n, seed=seed)
                    z = model.virtual_observation(
                        f, model.sample_covariance(y))
                    for method in ('da', 'ss'):
                        aug = (estimator.augment_direct(z, mv)
                               if method == 'da' else
                               estimator.augment_spatial_smoothing(z, mv))
                        k = sc.n_sources
                        en = estimator.noise_subspace(aug, k)
                        est = estimator.estimate_doas(en, k)
                        ref_angles, ref_resolved, ref_refined = (
                            reference_estimate(aug, k))
                        label = (scene, snr, n, seed, method)
                        assert est.resolved == ref_resolved, label
                        np.testing.assert_array_equal(
                            est.refined, ref_refined, err_msg=str(label))
                        err = np.abs(est.angles - ref_angles)
                        assert np.all(err <= 1e-8), (label, err.max())
                        # the polynomial null spectrum is 1 / music_spectrum
                        grid, table = estimator._grid_table(
                            mv, float(np.deg2rad(0.1)), 0.5)
                        null = estimator._null_eval(
                            *estimator._null_polynomial(en), table)
                        ref_null = 1.0 / reference.music_spectrum(en, grid)
                        np.testing.assert_allclose(null, ref_null, rtol=0,
                                                   atol=1e-12 * mv)


# Reference for the shared eigensystem: each method decomposes its own
# augmentation, SS the spatially smoothed matrix, then scans it.

SHARED_ARRAYS = ('coprime:3,5', 'nested:4,6', 'mra:10')


@pytest.mark.parametrize('spec', SHARED_ARRAYS)
def test_shared_eigensystem_matches_separate_decompositions(spec):
    geom = harness._parse_array(spec)
    co = geometry.difference_coarray(geom)
    f = geometry.selection_matrix(co)
    mv = co.mv
    shared = differing = 0
    for k in (1, 2, mv // 2, mv - 1):
        doas = np.deg2rad(np.linspace(-60.0, 60.0, k) if k > 1 else (20.0,))
        for snr in (-10.0, 0.0, 10.0, 20.0, 30.0):
            sc = model.SourceScenario.with_snr(doas, snr)
            for n, seed in itertools.product((10, 50, 500), (7, 8)):
                y = model.simulate_snapshots(geom, sc, n, seed=seed)
                z = model.virtual_observation(f,
                                              model.sample_covariance(y))
                da = estimator.run_music(z, mv, k, method='da')
                ss = estimator.run_music(z, mv, k, method='ss')
                ref_da = estimator.estimate_doas(estimator.noise_subspace(
                    estimator.augment_direct(z, mv), k), k)
                ref_ss = estimator.estimate_doas(estimator.noise_subspace(
                    estimator.augment_spatial_smoothing(z, mv), k), k)
                label = (k, snr, n, seed)
                assert da.resolved == ref_da.resolved, label
                np.testing.assert_array_equal(da.angles, ref_da.angles,
                                              err_msg=str(label))
                np.testing.assert_array_equal(da.refined, ref_da.refined,
                                              err_msg=str(label))
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
