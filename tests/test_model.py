"""Signal model tests: vectorization, scenarios, covariances, snapshots."""

import csv

import numpy as np
import pytest

from coarray_lab import geometry, model, reference


def test_vec_is_column_major():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(model.vec(a), [1.0, 3.0, 2.0, 4.0])


def test_vec_unvec_round_trip():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_array_equal(model.unvec(model.vec(a), 4), a)
    b = rng.standard_normal((2, 5))
    np.testing.assert_array_equal(model.unvec(model.vec(b), 2, 5), b)


def test_scenario_validation():
    with pytest.raises(ValueError):
        model.SourceScenario((), (), 1.0)
    with pytest.raises(ValueError):
        model.SourceScenario((0.1,), (1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        model.SourceScenario((np.pi / 2,), (1.0,), 1.0)  # boundary excluded
    with pytest.raises(ValueError):
        model.SourceScenario((0.2, 0.1), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        model.SourceScenario((0.1, 0.1), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        model.SourceScenario((0.1,), (0.0,), 1.0)
    with pytest.raises(ValueError):
        model.SourceScenario((0.1,), (1.0,), 0.0)
    # powers and noise must be finite, and NaN is neither
    for powers, noise in (((np.nan,), 1.0), ((np.inf,), 1.0),
                          ((1.0,), np.inf), ((1.0,), np.nan)):
        with pytest.raises(ValueError, match='finite and positive'):
            model.SourceScenario((0.1,), powers, noise)


def test_scenario_checks_fail_in_a_fixed_order():
    # each case also breaks checks later in the order; in the first two
    # the order break comes before the out-of-range DOA in the tuple
    inside = 'strictly inside'
    cases = (
        ((0.2, 0.1, 2.0), (1.0, 1.0, 1.0), 1.0, inside),
        ((0.2, np.nan, 0.1), (1.0, -1.0, 1.0), 0.0, inside),
        ((0.2, 0.1), (1.0,), 1.0, 'one power per source'),
        ((), (np.inf,), np.nan, 'at least one source'),
        ((0.2, 0.1), (0.0, 1.0), np.inf, 'strictly increasing'),
        ((0.1, 0.1), (np.nan, 1.0), 0.0, 'strictly increasing'),
        ((0.1, 0.2), (1.0, -np.inf), 0.0, 'source powers'),
        ((0.1, 0.2), (1.0, 2.0), -1.0, 'noise power'),
    )
    for doas, powers, noise, message in cases:
        with pytest.raises(ValueError, match=message):
            model.SourceScenario(doas, powers, noise)
    # a value that is no number fails before any range or order check
    with pytest.raises(ValueError, match='could not convert'):
        model.SourceScenario((2.0, 'x'), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match='could not convert'):
        model.SourceScenario((0.2, 0.1), ('y', 1.0), 1.0)
    sc = model.SourceScenario(np.array([-0.3, 0.4]), [1, np.float32(2)], 1)
    assert sc.doas == (-0.3, 0.4) and sc.powers == (1.0, 2.0)
    assert all(type(v) is float for v in sc.doas + sc.powers)
    assert type(sc.noise_power) is float


def test_with_snr_noise_floor():
    sc = model.SourceScenario.with_snr((-0.3, 0.4), 10.0)
    assert sc.powers == (1.0, 1.0)
    assert sc.noise_power == pytest.approx(0.1)
    assert sc.snr_db() == pytest.approx(10.0)
    # the floor references the weakest source
    sc = model.SourceScenario.with_snr((-0.3, 0.4), 0.0, powers=(4.0, 0.25))
    assert sc.noise_power == pytest.approx(0.25)
    assert sc.snr_db() == pytest.approx(0.0)
    # a noise floor out of float range is a ValueError, not an
    # OverflowError or an infinite noise power
    with pytest.raises(ValueError, match='out of range'):
        model.SourceScenario.with_snr((0.1,), -4000.0)
    with pytest.raises(ValueError, match='finite and positive'):
        model.SourceScenario.with_snr((0.1,), -10.0, powers=(1e308,))


def test_scaled_scenario():
    sc = model.SourceScenario((0.1,), (2.0,), 0.5).scaled(3.0)
    assert sc.powers == (6.0,)
    assert sc.noise_power == pytest.approx(1.5)
    assert sc.n_sources == 1


def test_steering_vector_elements():
    geom = geometry.custom([0, 2, 5])
    theta = 0.3
    a = model.steering_vector(geom, theta)
    for i, p in enumerate(geom.positions):
        assert a[i] == pytest.approx(np.exp(1j * np.pi * p * np.sin(theta)))
    assert a[0] == 1.0


def test_steering_matrix_columns():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.4, 0.2, 0.9), (1.0, 1.0, 1.0), 1.0)
    a, _ = model.steering_matrix(geom, sc)
    for k, theta in enumerate(sc.doas):
        np.testing.assert_allclose(a[:, k], model.steering_vector(geom, theta),
                                   rtol=1e-15)


def test_steering_derivative_matches_central_difference():
    geom = geometry.mra(10)
    sc = model.SourceScenario((-0.7, 0.05, 1.1), (1.0, 2.0, 0.5), 0.3)
    _, a_dot = model.steering_matrix(geom, sc)
    h = 1e-6
    for k, theta in enumerate(sc.doas):
        numeric = (model.steering_vector(geom, theta + h)
                   - model.steering_vector(geom, theta - h)) / (2.0 * h)
        np.testing.assert_allclose(a_dot[:, k], numeric, rtol=1e-6, atol=1e-8)


def test_true_covariance_matches_rank_one_sum():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.5, 0.3), (2.0, 0.7), 0.4)
    r_mat = model.true_covariance(geom, sc)
    assert r_mat.shape == (geom.n_sensors, geom.n_sensors)
    expected = 0.4 * np.eye(geom.n_sensors).astype(complex)
    for k, theta in enumerate(sc.doas):
        a = model.steering_vector(geom, theta)
        expected += sc.powers[k] * np.outer(a, a.conj())
    np.testing.assert_allclose(r_mat, expected, rtol=1e-14)
    np.testing.assert_allclose(r_mat, r_mat.conj().T, rtol=0, atol=1e-15)


def test_simulate_snapshots_shape_and_reproducibility():
    geom = geometry.nested(2, 2)
    sc = model.SourceScenario.with_snr((0.2,), 0.0)
    y1 = model.simulate_snapshots(geom, sc, 16, seed=42)
    y2 = model.simulate_snapshots(geom, sc, 16, seed=42)
    y3 = model.simulate_snapshots(geom, sc, 16, seed=43)
    assert y1.shape == (4, 16)
    np.testing.assert_array_equal(y1, y2)
    assert np.max(np.abs(y1 - y3)) > 1e-3
    with pytest.raises(ValueError):
        model.simulate_snapshots(geom, sc, 0, seed=1)


def test_simulate_snapshots_matches_two_temporary_draws():
    # each complex draw is a (re, im) pair of normals read in place; the
    # result equals building re + 1j * im from separate temporaries
    for geom, doas, powers in ((geometry.coprime(3, 5), (0.3,), (1.0,)),
                               (geometry.nested(2, 3), (-0.4, 0.5),
                                (2.0, 0.5)),
                               (geometry.mra(6), np.linspace(-1.0, 1.0, 11),
                                np.linspace(0.5, 3.0, 11))):
        sc = model.SourceScenario(tuple(doas), tuple(powers), 0.7)
        for seed in range(5):
            y = model.simulate_snapshots(geom, sc, 40, seed=seed)
            rng_sig, rng_noise = model._trial_streams(seed)
            a, _ = model.steering_matrix(geom, sc)
            sig = rng_sig.standard_normal((40, sc.n_sources, 2))
            x = np.sqrt(np.asarray(powers) / 2.0) * (
                sig[:, :, 0] + 1j * sig[:, :, 1])
            nse = rng_noise.standard_normal((40, geom.n_sensors, 2))
            noise = np.sqrt(0.7 / 2.0) * (nse[:, :, 0] + 1j * nse[:, :, 1])
            np.testing.assert_array_equal(y, a @ x.T + noise.T)
            assert np.array_equal(np.signbit(y.view(float)),
                                  np.signbit((a @ x.T + noise.T).view(float)))


def test_simulate_snapshots_prefix_property():
    # a longer run with the same seed extends a shorter one
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr((-0.3, 0.5), 5.0)
    y_short = model.simulate_snapshots(geom, sc, 6, seed=7)
    y_long = model.simulate_snapshots(geom, sc, 24, seed=7)
    # equality up to BLAS blocking in the mixing matmul
    np.testing.assert_allclose(y_long[:, :6], y_short, rtol=0, atol=1e-14)


def test_simulate_snapshots_accepts_seed_sequence():
    geom = geometry.ula(3)
    sc = model.SourceScenario.with_snr((0.1,), 0.0)
    ss = np.random.SeedSequence(entropy=99, spawn_key=(2, 5))
    y1 = model.simulate_snapshots(geom, sc, 8, seed=ss)
    y2 = model.simulate_snapshots(
        geom, sc, 8, seed=np.random.SeedSequence(entropy=99, spawn_key=(2, 5)))
    np.testing.assert_array_equal(y1, y2)


def test_sample_covariance_converges_to_model():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.6, 0.2), (1.0, 1.5), 0.8)
    n = 50_000
    y = model.simulate_snapshots(geom, sc, n, seed=11)
    r_hat = model.sample_covariance(y)
    assert r_hat.shape == (geom.n_sensors, geom.n_sensors)
    truth = model.true_covariance(geom, sc)
    # per-entry standard error is sqrt(R_ii R_jj / N), below 0.02 here
    np.testing.assert_allclose(r_hat, truth, rtol=0, atol=0.08)
    np.testing.assert_allclose(r_hat, r_hat.conj().T, rtol=0, atol=1e-15)


def test_sample_covariance_rejects_bad_shape():
    with pytest.raises(ValueError):
        model.sample_covariance(np.zeros(5, dtype=complex))


def _within_se(samples, target, bound=4.0):
    """Assert each entry's sample mean is within ``bound`` SE of target.

    Entries with no spread (the imaginary diagonal of a Hermitian draw)
    must hit their target to 1e-12.
    """
    dev = np.abs(samples.mean(axis=0) - target)
    se = samples.std(axis=0) / np.sqrt(samples.shape[0])
    assert np.all(dev <= bound * se + 1e-12)


def test_sample_covariance_draw_matches_the_moment_oracle():
    # first and second moments of dr = vec(R_hat - R) over Wishart draws
    # against the exact moments of N Gaussian snapshots, at criterion
    # 4's bound of 4 standard errors
    geom = geometry.ula(3)
    sc = model.SourceScenario(tuple(np.deg2rad([-20.0, 35.0])),
                              (1.0, 1.5), 0.8)
    n = 50
    draws = 40_000
    truth = model.true_covariance(geom, sc)
    chol = np.linalg.cholesky(truth)
    dr = np.array([model.vec(model.sample_covariance_draw(chol, n, seed))
                   for seed in range(draws)]) - model.vec(truth)
    re, im = dr.real, dr.imag
    _within_se(re, 0.0)
    _within_se(im, 0.0)
    targets = reference.delta_r_moment_oracle(truth, n)
    for (u, v), target in zip(((re, re), (im, im), (re, im)), targets):
        _within_se(u[:, :, None] * v[:, None, :], target)


@pytest.mark.parametrize('n', [1, 3])
def test_sample_covariance_draw_below_m_snapshots_is_singular(n):
    # N < M: the singular Wishart, Hermitian PSD of rank N, mean R
    geom = geometry.nested(2, 3)
    sc = model.SourceScenario((-0.4, 0.5), (2.0, 0.5), 0.7)
    truth = model.true_covariance(geom, sc)
    chol = np.linalg.cholesky(truth)
    draws = np.array([model.sample_covariance_draw(chol, n, seed)
                      for seed in range(20_000)])
    for r_hat in draws[:200]:
        np.testing.assert_array_equal(r_hat, r_hat.conj().T)
        eig = np.linalg.eigvalsh(r_hat)
        assert eig[0] > -1e-12 * eig[-1]
        assert np.linalg.matrix_rank(r_hat) == n
    _within_se(draws.real, truth.real)
    _within_se(draws.imag, truth.imag)


def test_sample_covariance_draw_seeding_and_validation():
    geom = geometry.ula(4)
    chol = np.linalg.cholesky(model.true_covariance(
        geom, model.SourceScenario.with_snr((0.1,), 0.0)))
    ss = np.random.SeedSequence(entropy=99, spawn_key=(2, 5))
    r1 = model.sample_covariance_draw(chol, 8, ss)
    r2 = model.sample_covariance_draw(
        chol, 8, np.random.SeedSequence(entropy=99, spawn_key=(2, 5)))
    np.testing.assert_array_equal(r1, r2)
    assert np.max(np.abs(r1 - model.sample_covariance_draw(chol, 8, 3))) > 1e-3
    for bad in (0, -2):
        with pytest.raises(ValueError):
            model.sample_covariance_draw(chol, bad, 1)


def _trial_seed(trial):
    return np.random.SeedSequence(entropy=7, spawn_key=(1, trial))


@pytest.mark.parametrize('spec, n', [
    (('coprime', 3, 5), 500), (('mra', 10), 10),
    (('nested', 2, 3), 1), (('nested', 2, 3), 3)],
    ids=['coprime35-N500', 'mra10-N10', 'nested23-N1', 'nested23-N3'])
def test_sample_covariance_draws_slices_equal_one_seed_draws(spec, n):
    # N >= M on two arrays, and the singular N < M draw on nested(2,3)
    geom = geometry.make_array(*spec)
    sc = model.SourceScenario((-0.4, 0.5), (2.0, 0.5), 0.7)
    chol = np.linalg.cholesky(model.true_covariance(geom, sc))
    seeds = [_trial_seed(t) for t in range(6)] + [11]
    stack = model.sample_covariance_draws(chol, n, seeds)
    m = geom.n_sensors
    assert stack.shape == (7, m, m)
    for t, r_hat in enumerate(stack[:6]):
        assert np.array_equal(
            r_hat, model.sample_covariance_draw(chol, n, _trial_seed(t)))
    assert np.array_equal(stack[6], model.sample_covariance_draw(chol, n, 11))


def test_sample_covariance_draws_read_each_stream_in_bartlett_order():
    # one stream per seed: the below-diagonal normals row by row, then
    # the diagonal gammas, whatever the seed's place in the stack
    geom = geometry.nested(2, 3)
    sc = model.SourceScenario((-0.4, 0.5), (2.0, 0.5), 0.7)
    chol = np.linalg.cholesky(model.true_covariance(geom, sc))
    m, n = geom.n_sensors, 3
    stack = model.sample_covariance_draws(chol, n, [_trial_seed(t)
                                                    for t in range(3)])
    for t, r_hat in enumerate(stack):
        rng = np.random.Generator(np.random.Philox(_trial_seed(t)))
        bartlett = np.zeros((m, n), dtype=complex)
        for i in range(1, m):
            for j in range(min(i, n)):
                re, im = rng.standard_normal(2)
                bartlett[i, j] = np.sqrt(0.5) * (re + 1j * im)
        for i in range(n):
            bartlett[i, i] = np.sqrt(rng.standard_gamma(n - i))
        lt = chol @ bartlett
        np.testing.assert_allclose(r_hat, lt @ lt.conj().T / n,
                                   rtol=1e-13, atol=1e-13)


def test_sample_covariance_draws_checks_snapshots_before_any_stream(
        monkeypatch):
    geom = geometry.ula(4)
    chol = np.linalg.cholesky(model.true_covariance(
        geom, model.SourceScenario.with_snr((0.1,), 0.0)))
    streams = []
    real = np.random.Philox

    def counting(seed):
        streams.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, 'Philox', counting)
    for bad in (0, -2):
        with pytest.raises(ValueError):
            model.sample_covariance_draws(chol, bad, [1, 2])
    assert streams == []
    empty = model.sample_covariance_draws(chol, 8, [])
    assert empty.shape == (0, 4, 4)
    assert empty.dtype == complex
    assert streams == []


def test_virtual_observation_averages_lag_entries():
    geom = geometry.custom([0, 1, 4])
    co = geometry.difference_coarray(geom)
    sc = model.SourceScenario((-0.2, 0.35), (1.0, 2.0), 0.5)
    r_mat = model.true_covariance(geom, sc)
    z = model.virtual_observation(co, r_mat)
    assert z.shape == (2 * co.mv - 1,)
    # mv = 2 here: rows are lags -1, 0, +1 of R
    np.testing.assert_allclose(z[0], r_mat[0, 1], rtol=1e-15)
    np.testing.assert_allclose(z[1], np.trace(r_mat) / 3.0, rtol=1e-15)
    np.testing.assert_allclose(z[2], r_mat[1, 0], rtol=1e-15)


def test_virtual_observation_conjugate_symmetry_and_identity():
    geom = geometry.mra(6)
    co = geometry.difference_coarray(geom)
    sc = model.SourceScenario.with_snr((-0.5, 0.1, 0.7), 3.0)
    z = model.virtual_observation(co, model.true_covariance(geom, sc))
    np.testing.assert_allclose(z, np.conj(z[::-1]), rtol=0, atol=1e-14)
    e_center = np.zeros(2 * co.mv - 1)
    e_center[co.mv - 1] = 1.0
    np.testing.assert_allclose(
        model.virtual_observation(co, np.eye(geom.n_sensors)),
        e_center, rtol=0, atol=0)
    m = geom.n_sensors
    # vec(R) is formed inside; a vector or a matrix of another array fails
    for bad in (np.zeros(m * m), np.zeros((m - 1, m - 1)),
                np.zeros((m, m + 1)), np.zeros((m * m, 1))):
        with pytest.raises(ValueError, match='M x M'):
            model.virtual_observation(co, bad)


def test_virtual_observation_follows_coarray_model():
    # on exact data z obeys the virtual ULA model with a noise spike
    # at the central lag only
    geom = geometry.coprime(2)
    co = geometry.difference_coarray(geom)
    sc = model.SourceScenario((-0.45, 0.25), (1.3, 0.8), 0.6)
    z = model.virtual_observation(co, model.true_covariance(geom, sc))
    lags = np.arange(-(co.mv - 1), co.mv)
    phi = np.pi * np.sin(np.asarray(sc.doas))
    a_virtual = np.exp(1j * np.outer(lags, phi))
    expected = a_virtual @ np.asarray(sc.powers)
    expected[co.mv - 1] += sc.noise_power
    np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-14)


def test_dump_snapshots_csv(tmp_path):
    geom = geometry.ula(3)
    sc = model.SourceScenario.with_snr((0.3,), 0.0)
    y = model.simulate_snapshots(geom, sc, 4, seed=5)
    path = tmp_path / 'snaps.csv'
    model.dump_snapshots_csv(y, path)
    with open(path, newline='') as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ['t', 'sensor', 're', 'im']
    assert len(rows) == 1 + 3 * 4
    t, sensor, re, im = rows[1 + 2 * 3 + 1]  # snapshot 2, sensor 1
    assert (int(t), int(sensor)) == (2, 1)
    assert complex(float(re), float(im)) == y[1, 2]
