"""Asymptotic MSE, CRB, and resolution analysis tests.

Every closed-form quantity is rebuilt here through an independent
route: projections via least squares, the error functional via the
dense stacking matrix, the perturbation moments via the standard
complex-Gaussian identities, and the Fisher information via the trace
form. The implementation must agree with each rebuild to near machine
precision.
"""

import numpy as np
import pytest

from coarray_lab import analysis, geometry, harness, model, reference


def random_scenario(rng, k, span=1.2, min_sep=0.15):
    while True:
        doas = np.sort(rng.uniform(-span, span, size=k))
        if k == 1 or np.min(np.diff(doas)) > min_sep:
            break
    powers = rng.uniform(0.5, 2.0, size=k)
    noise = rng.uniform(0.2, 2.0)
    return model.SourceScenario(tuple(doas), tuple(powers), noise)


def virtual_manifold(geom, scenario, mv):
    """Virtual steering matrix and derivative, rebuilt inline."""
    theta = np.asarray(scenario.doas)
    lags = np.arange(mv)
    av = np.exp(1j * np.pi * np.outer(lags, np.sin(theta)))
    av_dot = 1j * np.pi * np.cos(theta)[None, :] * lags[:, None] * av
    return av, av_dot


def test_error_terms_rejects_too_many_sources():
    geom = geometry.ula(3)  # mv = 3
    sc = model.SourceScenario((-0.4, 0.1, 0.5), (1.0,) * 3, 1.0)
    with pytest.raises(ValueError):
        analysis.error_terms(geom, sc)


def test_alpha_and_beta_via_least_squares():
    geom = geometry.coprime(2)
    rng = np.random.default_rng(10)
    for k in (1, 2, 3):
        sc = random_scenario(rng, k)
        terms = analysis.error_terms(geom, sc)
        av, av_dot = virtual_manifold(geom, sc, terms.mv)
        # alpha rows: negated rows of the pseudo-inverse, i.e. the
        # minimum-norm solution of av^H x = -e_k
        for j in range(k):
            e = np.zeros(k)
            e[j] = 1.0
            x, *_ = np.linalg.lstsq(av.conj().T, -e.astype(complex), rcond=None)
            np.testing.assert_allclose(terms.alpha[j], x.conj(),
                                       rtol=1e-10, atol=1e-12)
        # beta rows: residual of projecting the derivative onto the
        # signal manifold span
        coeff, *_ = np.linalg.lstsq(av, av_dot, rcond=None)
        resid = av_dot - av @ coeff
        np.testing.assert_allclose(terms.beta, resid.T, rtol=1e-9, atol=1e-12)
        # curvature: real inner product of derivative and residual
        np.testing.assert_allclose(
            terms.gamma, np.real(np.sum(av_dot.conj() * resid, axis=0)),
            rtol=1e-9)
        assert np.all(terms.gamma > 0)


def test_xi_via_dense_stacking_route():
    # the convolution shortcut must equal F^T Gamma^T (beta ox alpha)
    rng = np.random.default_rng(11)
    for geom in (geometry.coprime(2), geometry.mra(5)):
        co = geometry.difference_coarray(geom)
        f = geometry.selection_matrix(co)
        gamma = reference.gamma_stack(co.mv)
        for k in (1, 2):
            sc = random_scenario(rng, k)
            terms = analysis.error_terms(geom, sc)
            for j in range(k):
                dense = np.kron(terms.beta[j], terms.alpha[j]) @ gamma @ f
                np.testing.assert_allclose(terms.xi[j], dense,
                                           rtol=1e-11, atol=1e-13)


def test_xi_matrices_are_hermitian():
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 10.0, 45.0]), 0.0)
    terms = analysis.error_terms(geom, sc)
    for j in range(sc.n_sources):
        x = model.unvec(terms.xi[j], geom.n_sensors)
        np.testing.assert_allclose(x, x.conj().T, rtol=0, atol=1e-12)


def test_error_functionals_are_nondegenerate():
    rng = np.random.default_rng(12)
    geom = geometry.nested(2, 3)
    for _ in range(10):
        sc = random_scenario(rng, int(rng.integers(1, 4)))
        terms = analysis.error_terms(geom, sc)
        # the virtual manifold is, bit for bit, the steering matrix of
        # the virtual ULA
        av, _ = model.steering_matrix(geometry.ula(terms.mv), sc)
        np.testing.assert_array_equal(
            terms.alpha, -np.linalg.pinv(av, rcond=analysis._RANK_RCOND))
        assert np.all(np.linalg.norm(terms.beta, axis=1) > 1e-8)
        assert np.all(np.linalg.norm(terms.xi, axis=1) > 1e-8)
        assert np.all(terms.gamma > 0)


def assert_terms_equal(got, want):
    assert got.mv == want.mv
    for name in ('alpha', 'beta', 'gamma', 'xi'):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_error_terms_ignore_powers_and_noise():
    geom = geometry.coprime(3, 5)
    doas = np.deg2rad([-20.0, 10.0, 45.0])
    sc = model.SourceScenario.with_snr(doas, 0.0)
    louder = model.SourceScenario(sc.doas, (2.0, 1.0, 3.0), 0.1)
    assert_terms_equal(analysis.error_terms(geometry.coprime(3, 5), louder),
                       analysis.error_terms(geom, sc))


def test_interleaved_mse_calls_match_cold_calls():
    rng = np.random.default_rng(13)
    first = random_scenario(rng, 3)
    # case 3 shares the first case's DOAs, not its powers or noise;
    # case 4 shares its powers and all but the last DOA
    cases = [(geometry.nested(4, 6), first),
             (geometry.mra(10), random_scenario(rng, 2)),
             (geometry.nested(4, 6), random_scenario(rng, 3)),
             (geometry.nested(4, 6),
              model.SourceScenario(first.doas, (0.7, 1.9, 1.1), 0.05)),
             (geometry.nested(4, 6),
              model.SourceScenario(first.doas[:2] + (first.doas[2] + 0.05,),
                                   first.powers, first.noise_power))]
    want = [analysis.analytical_mse(g, sc, 500) for g, sc in cases]
    for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (0, 3, 4, 0, 3)):
        for i in order:
            g, sc = cases[i]
            np.testing.assert_array_equal(
                analysis.analytical_mse(g, sc, 500), want[i])
    # a sweep that reuses one point's coefficients at another noise
    # power and N gets the values of a fresh call, bit for bit
    g, sc = cases[0]
    coeffs = analysis.mse_coefficients(g, sc)
    for snr, n in ((-10.0, 50), (20.0, 500), (60.0, 5000)):
        other = model.SourceScenario.with_snr(sc.doas, snr, sc.powers)
        np.testing.assert_array_equal(coeffs.mse(other.noise_power, n),
                                      analysis.analytical_mse(g, other, n))


def count_builds(monkeypatch, name):
    """Record the (geometry, DOAs) of each call of ``analysis.<name>``."""
    built = []
    real = getattr(analysis, name)

    def counted(geom, scenario):
        built.append((geom, scenario.doas))
        return real(geom, scenario)

    monkeypatch.setattr(analysis, name, counted)
    return built


def test_efficiency_sweep_builds_coefficients_once_per_fan(monkeypatch):
    mse_built = count_builds(monkeypatch, 'mse_coefficients')
    crb_built = count_builds(monkeypatch, 'crb_coefficients')
    monkeypatch.setattr(analysis, 'crb', None)
    # each fan's 41 points take one stacked evaluation
    fans = []
    real_reports = analysis.CrbCoefficients.reports

    def reports(self, noise_powers, n_snapshots):
        fans.append(len(noise_powers))
        return real_reports(self, noise_powers, n_snapshots)

    monkeypatch.setattr(analysis.CrbCoefficients, 'reports', reports)
    cfg = harness.ExperimentConfig(
        kind='efficiency', arrays=('coprime:3,5', 'nested:4,6', 'mra:10'),
        k_sources=(1, 2, 4, 6, 8, 10, 12, 14),
        snr_db=tuple(float(s) for s in range(-20, 61, 2)),
        n_snapshots=(500,), empirical=False)
    rows = harness.run(cfg)['efficiency'].rows
    assert len(rows) == 3 * 8 * 41
    assert len(mse_built) == len(set(mse_built)) == 3 * 8
    assert crb_built == mse_built
    assert fans == [41] * (3 * 8)


def test_mse_sweep_never_builds_crb_coefficients(monkeypatch):
    crb_built = count_builds(monkeypatch, 'crb_coefficients')
    cfg = harness.ExperimentConfig(
        kind='verify_mse', arrays=('coprime:2',), doas_deg=(-20.0, 25.0),
        snr_db=(0.0, 10.0), n_snapshots=(100,), n_trials=2, method='both')
    assert len(harness.run(cfg)['verify_mse'].rows) == 4
    assert crb_built == []


def test_mse_single_source_is_affine_in_noise_power():
    # at K = 1 the saturation term vanishes, so N (p gamma)^2 MSE / s
    # = Q1 + s Q2 is a line in the noise power s; a form that cancels
    # at high SNR drifts off it
    for geom in (geometry.coprime(3, 5), geometry.nested(4, 6),
                 geometry.mra(10)):
        gamma = analysis.error_terms(
            geom, model.SourceScenario((0.3,), (1.0,), 1.0)).gamma[0]
        noise, scaled = [], []
        for snr in (20.0, 40.0, 60.0, 80.0, 100.0):
            sc = model.SourceScenario.with_snr((0.3,), snr)
            mse = analysis.analytical_mse(geom, sc, 500)[0, 0]
            noise.append(sc.noise_power)
            scaled.append(500 * gamma ** 2 * mse / sc.noise_power)
        slope = (scaled[0] - scaled[1]) / (noise[0] - noise[1])
        for s, y in zip(noise, scaled):
            line = scaled[1] + slope * (s - noise[1])
            assert abs(y - line) <= 1e-12 * abs(line)


def test_mse_routes_agree():
    rng = np.random.default_rng(13)
    for geom in (geometry.coprime(2), geometry.nested(2, 3)):
        for k in (1, 2, 3):
            sc = random_scenario(rng, k)
            direct = analysis.analytical_mse(geom, sc, 300)
            moments = reference.analytical_mse_via_moments(geom, sc, 300)
            np.testing.assert_allclose(direct, moments, rtol=1e-10)
            np.testing.assert_array_equal(direct, direct.T)
            assert np.all(np.diag(direct) > 0)


def test_mse_scales_exactly_with_snapshots():
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr((-0.3, 0.4), 5.0)
    one = analysis.analytical_mse(geom, sc, 1)
    np.testing.assert_allclose(analysis.analytical_mse(geom, sc, 400),
                               one / 400.0, rtol=1e-14)


def test_mse_decreases_with_snr():
    geom = geometry.coprime(3, 5)
    doas = np.deg2rad([-10.0, 25.0])
    previous = None
    for snr in range(-10, 61, 10):
        sc = model.SourceScenario.with_snr(doas, snr)
        diag = np.diag(analysis.analytical_mse(geom, sc, 500))
        if previous is not None:
            assert np.all(diag < previous)
        previous = diag


def test_mse_and_crb_invariant_to_joint_power_scaling():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.5, 0.2), (1.0, 2.0), 0.7)
    scaled = sc.scaled(37.0)
    np.testing.assert_allclose(analysis.analytical_mse(geom, sc, 200),
                               analysis.analytical_mse(geom, scaled, 200),
                               rtol=1e-10)
    np.testing.assert_allclose(analysis.crb(geom, sc, 200).crb,
                               analysis.crb(geom, scaled, 200).crb,
                               rtol=1e-8)


def test_limiting_mse_matches_projection_route():
    cases = 0
    for geom, sc in reference_scenarios():
        if sc.n_sources < 2:
            continue
        equal = model.SourceScenario.with_snr(sc.doas, 0.0)
        want = reference.limiting_mse_via_projection(geom, equal)
        got = analysis.limiting_mse(geom, equal)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        cases += 1
    assert cases == 9


def test_limiting_mse_single_source_vanishes():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((0.3,), (1.0,), 1.0)
    assert analysis.limiting_mse(geom, sc)[0] < 1e-12


def test_limiting_mse_rejects_unequal_powers():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.3, 0.4), (1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        analysis.limiting_mse(geom, sc)


def test_limiting_mse_attained_at_high_snr_when_sources_exceed_sensors():
    # with more sources than sensors the scaled MSE saturates at a
    # strictly positive floor
    geom = geometry.coprime(2)  # 6 sensors
    doas = np.deg2rad(np.linspace(-60.0, 60.0, 7))
    limit = analysis.limiting_mse(
        geom, model.SourceScenario.with_snr(doas, 0.0))
    assert np.all(limit > 0)
    n = 1000
    sc = model.SourceScenario.with_snr(doas, 60.0)
    scaled = n * np.diag(analysis.analytical_mse(geom, sc, n))
    np.testing.assert_allclose(scaled, limit, rtol=0.01)
    # and the approach is from above as the SNR climbs
    sc_mid = model.SourceScenario.with_snr(doas, 30.0)
    scaled_mid = n * np.diag(analysis.analytical_mse(geom, sc_mid, n))
    assert np.all(scaled_mid > scaled)


def test_structured_cross_matrix_entries():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    c = reference.structured_cross_matrix(a, b)
    for m in range(3):
        for n in range(3):
            for r in range(3):
                for s in range(3):
                    assert c[m * 3 + r, n * 3 + s] == a[r, n] * b[s, m]
    with pytest.raises(ValueError):
        reference.structured_cross_matrix(np.zeros((2, 3)), np.zeros((3, 3)))


def test_moment_oracle_reassembles_complex_moments():
    # the real-part moment blocks must reassemble into the two standard
    # complex Gaussian results for the covariance perturbation:
    # E[dr dr^H] = (R^T ox R) / N and E[dr dr^T] with blockwise
    # rearranged entries E[dR_pq dR_st] = R_pt R_sq / N
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr(np.deg2rad([-25.0, 40.0]), 3.0)
    r_mat = model.true_covariance(geom, sc)
    n = 123
    m_rr, m_ii, m_ri = reference.delta_r_moment_oracle(r_mat, n)
    hermitian_part = m_rr + m_ii + 1j * (m_ri.T - m_ri)
    np.testing.assert_allclose(hermitian_part, np.kron(r_mat.T, r_mat) / n,
                               rtol=1e-12, atol=1e-14)
    plain_part = m_rr - m_ii + 1j * (m_ri + m_ri.T)
    np.testing.assert_allclose(plain_part,
                               reference.structured_cross_matrix(r_mat, r_mat) / n,
                               rtol=1e-12, atol=1e-14)


def test_moment_oracle_matches_sampled_moments():
    # small sampled cross-check; the acceptance suite runs a large one
    geom = geometry.ula(2)
    sc = model.SourceScenario((0.25,), (1.5,), 0.6)
    n = 25
    truth = model.true_covariance(geom, sc)
    m_rr, m_ii, _ = reference.delta_r_moment_oracle(truth, n)
    trials = 40_000
    acc_rr = np.zeros_like(m_rr)
    acc_ii = np.zeros_like(m_ii)
    for t in range(trials):
        y = model.simulate_snapshots(geom, sc, n, seed=(50_000 + t))
        dr = model.vec(model.sample_covariance(y) - truth)
        acc_rr += np.outer(dr.real, dr.real)
        acc_ii += np.outer(dr.imag, dr.imag)
    # per-entry sampling SE is about 1.2e-3 at this trial count
    np.testing.assert_allclose(acc_rr / trials, m_rr, rtol=0, atol=5e-3)
    np.testing.assert_allclose(acc_ii / trials, m_ii, rtol=0, atol=5e-3)


def test_model_jacobian_matches_central_differences():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.4, 0.3), (1.2, 0.8), 0.5)
    jac = analysis.model_jacobian(geom, sc)
    h = 1e-6

    def r_of(doas, powers, noise):
        return model.vec(model.true_covariance(
            geom, model.SourceScenario(doas, powers, noise)))

    cols = []
    for j in range(2):
        lo = list(sc.doas)
        hi = list(sc.doas)
        lo[j] -= h
        hi[j] += h
        cols.append((r_of(tuple(hi), sc.powers, sc.noise_power)
                     - r_of(tuple(lo), sc.powers, sc.noise_power)) / (2 * h))
    for j in range(2):
        lo = list(sc.powers)
        hi = list(sc.powers)
        lo[j] -= h
        hi[j] += h
        cols.append((r_of(sc.doas, tuple(hi), sc.noise_power)
                     - r_of(sc.doas, tuple(lo), sc.noise_power)) / (2 * h))
    cols.append((r_of(sc.doas, sc.powers, sc.noise_power + h)
                 - r_of(sc.doas, sc.powers, sc.noise_power - h)) / (2 * h))
    numeric = np.stack(cols, axis=1)
    np.testing.assert_allclose(jac, numeric, rtol=1e-5, atol=1e-7)


def test_fim_matches_trace_form():
    geom = geometry.coprime(2)
    sc = model.SourceScenario((-0.35, 0.2), (1.3, 0.9), 0.6)
    n = 77
    a, a_dot = model.steering_matrix(geom, sc)
    r_mat = model.true_covariance(geom, sc)
    r_inv = np.linalg.inv(r_mat)
    derivs = []
    for j in range(2):
        outer = np.outer(a_dot[:, j], a[:, j].conj())
        derivs.append(sc.powers[j] * (outer + outer.conj().T))
    for j in range(2):
        derivs.append(np.outer(a[:, j], a[:, j].conj()))
    derivs.append(np.eye(geom.n_sensors, dtype=complex))
    expected = np.empty((5, 5))
    for p in range(5):
        for q in range(5):
            expected[p, q] = n * np.real(
                np.trace(derivs[p] @ r_inv @ derivs[q] @ r_inv))
    np.testing.assert_allclose(analysis.crb(geom, sc, n).fim, expected,
                               rtol=1e-10, atol=1e-8)


def test_crb_defined_and_positive_definite():
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-15.0, 20.0]), 0.0)
    report = analysis.crb(geom, sc, 500)
    assert report.defined
    assert report.jacobian_rank == report.required_rank == 5
    eigs = np.linalg.eigvalsh(report.crb)
    assert np.all(eigs > 0)
    # inverting the full FIM must give the same DOA block
    via_fim = np.linalg.inv(report.fim)[:2, :2]
    np.testing.assert_allclose(report.crb, via_fim, rtol=1e-8)


def test_crb_undefined_when_parameters_outnumber_lags():
    # a 3-sensor ULA spans 5 distinct lags, too few for the 7
    # parameters of a 3-source scenario
    geom = geometry.ula(3)
    sc = model.SourceScenario.with_snr((-0.5, 0.1, 0.6), 10.0)
    report = analysis.crb(geom, sc, 500)
    assert not report.defined
    assert report.crb is None
    assert report.required_rank == 7
    assert report.jacobian_rank <= 5
    with pytest.raises(analysis.CrbUndefined, match='rank'):
        analysis.efficiency_kappa(report, np.eye(3))
    # a fan over mixed SNRs and N takes the stacked route to the same
    # undefined reports
    noise = [10.0 ** (-snr / 10.0) for snr in (-10.0, 10.0, 40.0)]
    ns = (50, 500, 5000)
    fan = analysis.crb_coefficients(geom, sc).reports(noise, ns)
    for one, s, n in zip(fan, noise, ns):
        point = analysis.crb(
            geom, model.SourceScenario(sc.doas, sc.powers, s), n)
        assert not one.defined and not point.defined
        assert one.jacobian_rank == point.jacobian_rank <= 5
        assert np.isnan(one.gram_condition)
        np.testing.assert_array_equal(one.fim, point.fim)


def test_crb_undefined_when_parameters_outnumber_jacobian_rows():
    # a 2-sensor ULA gives M^2 = 4 Jacobian rows against the 7 columns
    # of three sources: the QR's triangle is 4 x 7, and every point of
    # a fan is reported undefined at rank 3 with its full 7 x 7 FIM
    geom = geometry.ula(2)
    sc = model.SourceScenario.with_snr((-0.5, 0.1, 0.6), 10.0)
    fan = analysis.crb_coefficients(geom, sc).reports([0.1, 1.0], [50, 500])
    want = [reference.crb_via_whitening(
        geom, model.SourceScenario(sc.doas, sc.powers, s), n)
        for s, n in ((0.1, 50), (1.0, 500))]
    for got, ref in zip(fan, want):
        assert not got.defined and not ref.defined
        assert got.jacobian_rank == ref.jacobian_rank == 3
        assert got.required_rank == 7 and np.isnan(got.gram_condition)
        assert relative_gap(got.fim, ref.fim) <= 1e-12


def test_efficiency_kappa_plausible_range():
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-15.0, 20.0]), 10.0)
    report = analysis.crb(geom, sc, 500)
    mse = analysis.analytical_mse(geom, sc, 500)
    kappa = analysis.efficiency_kappa(report, mse)
    assert 0.0 < kappa <= 1.05


def test_resolution_predict_verdicts():
    tiny = np.diag([1e-10, 1e-10])
    huge = np.diag([1.0, 1.0])
    sep = np.deg2rad(1.0)
    assert analysis.resolution_predict(tiny, sep)
    assert not analysis.resolution_predict(huge, sep)
    # an RMS sum equal to the separation is resolvable: the threshold
    # reads the verdict as RMS sum - separation <= 0
    assert analysis.resolution_predict(np.diag([0.25, 0.25]), 1.0)
    assert not analysis.resolution_predict(np.diag([0.25, 0.25]),
                                           np.nextafter(1.0, 0.0))
    with pytest.raises(ValueError):
        analysis.resolution_predict(np.eye(3), sep)


def test_resolution_threshold_ordering_and_consistency():
    n = 500
    thresholds = {}
    for name, geom in (('mra', geometry.mra(10)),
                       ('nested', geometry.nested(4, 6)),
                       ('coprime', geometry.coprime(3, 5))):
        thresholds[name] = analysis.resolution_threshold(geom, n)
    # larger virtual apertures resolve tighter pairs
    assert thresholds['mra'] < thresholds['nested'] < thresholds['coprime']
    # the verdict flips around the reported threshold
    geom = geometry.mra(10)
    thr = thresholds['mra']
    for factor, expected in ((0.8, False), (1.2, True)):
        delta = factor * thr
        center = np.deg2rad(30.0)
        sc = model.SourceScenario(
            (center - delta / 2.0, center + delta / 2.0), (1.0, 1.0), 1.0)
        mse = analysis.analytical_mse(geom, sc, n)
        assert analysis.resolution_predict(mse, delta) is expected


def test_threshold_scan_continues_past_six_degrees_on_small_coarrays():
    base = np.geomspace(np.deg2rad(1e-3), np.deg2rad(6.0), 80)
    center = np.deg2rad(30.0)
    for geom in (geometry.ula(3), geometry.ula(4), geometry.coprime(3, 5),
                 geometry.mra(10), geometry.coprime(2)):
        scan = analysis._threshold_scan(geom, center)
        np.testing.assert_array_equal(scan[:80], base)
        steps = scan[1:] / scan[:-1]
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)
        mv = geometry.difference_coarray(geom).mv
        top = min(8.0 / mv, 1.98 * (np.pi / 2 - center))
        assert scan[-1] <= top * (1.0 + 1e-12) < scan[-1] * steps[0]
    # near endfire the base scan itself stops where the pair would
    # reach endfire, and there is no continuation
    np.testing.assert_array_equal(
        analysis._threshold_scan(geometry.ula(3), np.deg2rad(88.0)),
        base[base <= 1.98 * np.deg2rad(2.0)])
    # the 6 deg scan had no crossing on these
    for geom in (geometry.ula(3), geometry.ula(4)):
        thr = analysis.resolution_threshold(geom, 500, center=center)
        assert thr > np.deg2rad(6.0)
        check_threshold(thr, geom, 500, analysis.analytical_mse,
                        center=center)


def test_resolution_threshold_finds_a_crossing_between_coarse_points():
    # the verdict is True on 7 scan points near the top of the scan,
    # all between two points 8 apart where it is False; a pass over
    # every 8th point sees no turn there, the full scan does
    geom = geometry.custom((0, 1, 5, 7))
    center, noise = np.deg2rad(35.0), 10.0 ** 0.8
    thr = analysis.resolution_threshold(geom, 20, center=center,
                                        noise_power=noise)
    check_threshold(thr, geom, 20, analysis.analytical_mse, center=center,
                    noise_power=noise)


def synthetic_stack(excess, stacks, failed=lambda delta: False):
    """A stand-in for ``analysis._mse_stack`` with a chosen excess.

    Each row's RMS sum at N = 1 is delta + excess(delta), for the
    separation delta read back from the row's DOAs; rows where
    ``failed(delta)`` get a zero curvature. The DOA stacks of every call
    are appended to ``stacks``.
    """
    def build(geom, doas, powers):
        doas = np.array(doas, dtype=float)
        stacks.append(doas)
        rows = len(doas)
        delta = doas[:, 1] - doas[:, 0]
        half = np.array([(d + excess(d)) / 2.0 for d in delta])
        q0 = np.zeros((rows, 2, 2))
        q0[:, 0, 0] = q0[:, 1, 1] = half ** 2
        gamma = np.ones((rows, 2))
        gamma[[failed(d) for d in delta]] = 0.0
        empty = np.zeros((rows, 2, 1))
        return (analysis.ErrorTerms(mv=2, alpha=empty, beta=empty,
                                    gamma=gamma, xi=empty),
                analysis.MseCoefficients(q0=q0, q1=np.zeros_like(q0),
                                         q2=np.zeros_like(q0),
                                         scale=np.ones_like(q0)))
    return build


def scan_excess(scan, sign):
    """An excess of size 0.5 delta whose sign at scan point i is sign[i]."""
    return lambda d: np.interp(np.log(d), np.log(scan), 0.5 * sign * scan)


def scan_pairs(center, deltas):
    """The S x 2 DOA pairs the threshold builds for separations."""
    return np.stack((center - deltas / 2.0, center + deltas / 2.0), axis=1)


def test_whole_scan_build_peak_stays_within_four_xi():
    # the xi gather multiplies its lag copy in place, after the steering
    # stacks and the folded correlations are freed; with all of them
    # live beside the product, the mra(10) build peaked near 6 xi
    import tracemalloc
    geom = geometry.mra(10)
    center = np.deg2rad(30.0)
    pairs = scan_pairs(center, analysis._threshold_scan(geom, center))
    analysis._mse_stack(geom, pairs, (1.0, 1.0))  # warm the memos
    tracemalloc.start()
    try:
        terms, _ = analysis._mse_stack(geom, pairs, (1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * terms.xi.nbytes


def test_resolution_threshold_finds_a_run_before_a_later_turn(monkeypatch):
    """The threshold is the full scan's first turn, also where a short
    resolvable run comes before a later turn, as it can near endfire.
    This pins that on a synthetic excess; a pass over every 8th point
    stepped over the short run and returned the later crossing.
    """
    geom, center = geometry.mra(10), np.deg2rad(30.0)
    scan = analysis._threshold_scan(geom, center)
    # the verdict is True on scan points 20..22 and from 39 on
    sign = np.ones(scan.size)
    sign[20:23] = sign[39:] = -1.0
    stacks = []
    monkeypatch.setattr(analysis, '_mse_stack',
                        synthetic_stack(scan_excess(scan, sign), stacks))
    thr = analysis.resolution_threshold(geom, 1, center=center)
    assert scan[19] < thr < scan[20]
    # one stacked call holds the whole scan, then the polish goes one
    # separation per call
    np.testing.assert_array_equal(stacks[0], scan_pairs(center, scan))
    assert all(len(stack) == 1 for stack in stacks[1:])
    # the sequential route reads the same verdicts
    assert reference.resolution_threshold(geom, 1, center=center) == thr


def test_resolution_threshold_ignores_unread_points(monkeypatch):
    """The stacked scan also evaluates points that a read in order never
    reaches: the points past the first turn. A failed (zero-curvature)
    or non-finite row there neither raises nor moves the threshold; the
    same failed row at a point the read reaches raises NumericalFailure,
    as the one-point-at-a-time route does.
    """
    geom, center = geometry.mra(10), np.deg2rad(30.0)
    scan = analysis._threshold_scan(geom, center)
    sign = np.where(np.arange(scan.size) < 27, 1.0, -1.0)
    excess = scan_excess(scan, sign)

    def threshold(route, bad, broken):
        stacks = []
        # the scan stack is memoized; drop the last stand-in's rows
        analysis._scan_stack.cache_clear()
        monkeypatch.setattr(analysis, '_mse_stack', synthetic_stack(
            lambda d: np.nan if np.isclose(d, broken, rtol=1e-9)
            else excess(d), stacks,
            lambda d: np.isclose(d, bad, rtol=1e-9)))
        return outcome(route, geom, 1, center=center), stacks

    clean, _ = threshold(analysis.resolution_threshold, -1.0, -1.0)
    assert scan[26] < clean < scan[27]
    # the first turn is (26, 27); points 28 and on are evaluated in the
    # scan's stack but never read
    for bad, broken in ((scan[28], scan[48]), (scan[48], scan[28]),
                        (scan[scan.size - 1], scan[56])):
        got, stacks = threshold(analysis.resolution_threshold, bad, broken)
        assert got == clean
        evaluated = stacks[0][:, 1] - stacks[0][:, 0]
        assert np.isclose(evaluated, bad, rtol=1e-9).any()
        assert np.isclose(evaluated, broken, rtol=1e-9).any()
    # a non-finite RMS sum the read reaches is unresolvable: the turn
    # moves up one point
    moved, _ = threshold(analysis.resolution_threshold, -1.0, scan[27])
    assert scan[27] < moved < scan[28]
    assert threshold(reference.resolution_threshold, -1.0, scan[27])[0] \
        == moved
    # a failed row the read reaches: the first point, one before the
    # turn, and the turn's own upper point
    for bad in (scan[0], scan[25], scan[27]):
        for route in (analysis.resolution_threshold,
                      reference.resolution_threshold):
            got, _ = threshold(route, bad, -1.0)
            assert got is analysis.NumericalFailure


def failure(fn, *args, **kwargs):
    """The message of the NumericalFailure a call raises."""
    with pytest.raises(analysis.NumericalFailure) as info:
        fn(*args, **kwargs)
    return str(info.value)


NO_CROSSING = 'no resolution crossing inside the scan range'


def test_resolution_threshold_scan_ends_match_the_reference(monkeypatch):
    # a scan of no point or of one point has no pair of neighbours
    geom = geometry.mra(10)
    for gap, size in ((5e-6, 0), (9.3e-6, 1)):
        center = np.pi / 2 - gap
        assert analysis._threshold_scan(geom, center).size == size
        for route in (analysis.resolution_threshold,
                      reference.resolution_threshold):
            assert failure(route, geom, 500, center=center) == NO_CROSSING
    # a failed last point with no turn before it: a read in order
    # reaches it only from an unresolvable neighbour
    center = np.deg2rad(30.0)
    scan = analysis._threshold_scan(geom, center)
    for sign, want in ((1.0, analysis._NONPOSITIVE_CURVATURE),
                       (-1.0, NO_CROSSING)):
        analysis._scan_stack.cache_clear()
        monkeypatch.setattr(analysis, '_mse_stack', synthetic_stack(
            scan_excess(scan, np.full(scan.size, sign)), [],
            lambda d: np.isclose(d, scan[-1], rtol=1e-9)))
        for route in (analysis.resolution_threshold,
                      reference.resolution_threshold):
            assert failure(route, geom, 1, center=center) == want


@pytest.mark.parametrize('center_deg', [88.0, 89.5, -89.5])
@pytest.mark.parametrize('geom', [geometry.mra(10), geometry.ula(3)],
                         ids=['mra10', 'ula3'])
def test_resolution_threshold_near_endfire_stays_inside(geom, center_deg):
    # a pair center -/+ delta / 2 past endfire made SourceScenario raise
    # ValueError; now the threshold is found or NumericalFailure raised
    center = np.deg2rad(center_deg)
    for n, noise_power in ((500, 1.0), (50_000, 1e-3)):
        try:
            thr = analysis.resolution_threshold(geom, n, center=center,
                                                noise_power=noise_power)
        except analysis.NumericalFailure:
            continue
        assert 0.0 < thr < 2.0 * (np.pi / 2 - abs(center))


# Reference routes: the arithmetic the production code replaced, kept
# here to pin the faster routes against it.

# (array, source counts); coprime(16) runs as many sources as sensors
REFERENCE_CASES = (
    (geometry.coprime(3, 5), (1, 2, 11)),
    (geometry.nested(4, 6), (1, 2, 11)),
    (geometry.mra(10), (1, 2, 11)),
    (geometry.coprime(16), (48,)),
    (geometry.custom((0, 2, 3, 7, 20)), (1, 2, 5)),
)


def reference_scenarios():
    rng = np.random.default_rng(14)
    for geom, counts in REFERENCE_CASES:
        for k in counts:
            if k > 12:
                doas = np.deg2rad(np.linspace(-60.0, 60.0, k))
                yield geom, model.SourceScenario.with_snr(doas, 0.0)
            else:
                yield geom, random_scenario(rng, k, min_sep=0.1)


def xi_via_dense_selection(geom, terms):
    """Each xi row as F^T applied to the folded correlation."""
    f = geometry.selection_matrix(geometry.difference_coarray(geom))
    return np.stack([f.T @ np.convolve(beta[::-1], alpha, mode='full')
                     for alpha, beta in zip(terms.alpha, terms.beta)])


def mse_via_pair_loop(geom, scenario, n):
    """The closed-form MSE entry by entry, one sum per source pair."""
    terms = analysis.error_terms(geom, scenario)
    m, k = geom.n_sensors, scenario.n_sources
    rt = model.true_covariance(geom, scenario).T
    xi_mats = [model.unvec(terms.xi[j], m) for j in range(k)]
    sandwich = [rt @ x @ rt for x in xi_mats]
    scale = np.asarray(scenario.powers) * terms.gamma
    mse = np.empty((k, k))
    for k1 in range(k):
        for k2 in range(k):
            quad = np.sum(xi_mats[k1].conj() * sandwich[k2])
            mse[k1, k2] = quad.real / (n * scale[k1] * scale[k2])
    return 0.5 * (mse + mse.T)


def full_scan_crossing(geom, n_snapshots, mse, center=np.deg2rad(30.0),
                       noise_power=1.0):
    """The verdict by separation, and the full scan's first crossing."""
    def resolvable(delta):
        sc = model.SourceScenario(
            (center - delta / 2.0, center + delta / 2.0), (1.0, 1.0),
            noise_power)
        return analysis.resolution_predict(mse(geom, sc, n_snapshots), delta)

    deltas = analysis._threshold_scan(geom, center)
    verdicts = np.array([resolvable(d) for d in deltas])
    cross = np.nonzero(~verdicts[:-1] & verdicts[1:])[0]
    if cross.size == 0:
        raise analysis.NumericalFailure('no crossing in the full scan')
    return resolvable, deltas[cross[0]], deltas[cross[0] + 1]


def bisection(resolvable, a, b):
    """Bisect the verdict's turn in (a, b) down to adjacent floats.

    Returns:
        The midpoint of the final bracket and the verdicts it took.
    """
    steps = 0
    mid = 0.5 * (a + b)
    while mid != a and mid != b:
        steps += 1
        if resolvable(mid):
            b = mid
        else:
            a = mid
        mid = 0.5 * (a + b)
    return mid, steps


def check_threshold(got, geom, n_snapshots, mse, center=np.deg2rad(30.0),
                    noise_power=1.0, rtol=2e-12, strict=True, brackets=None):
    """Hold a threshold, or the NumericalFailure type, to the full scan.

    Both fail or neither does. A value lies in the full scan's first
    crossing bracket, the verdict turns at it, and it is within ``rtol``
    of the full scan's bisection. Near the root the excess RMS sum -
    separation is rounding noise, so several adjacent-float pairs are
    equally valid roots. ``strict`` asks for a False verdict at the
    lower neighbour float and a True one at the upper; otherwise the
    verdict need only turn between the value and one neighbour.
    ``brackets``, when given, lists the brackets the threshold polished:
    the full scan's one, or none when it failed.
    """
    try:
        resolvable, a, b = full_scan_crossing(geom, n_snapshots, mse, center,
                                              noise_power)
    except analysis.NumericalFailure:
        assert got is analysis.NumericalFailure
        assert not brackets
        return
    assert got is not analysis.NumericalFailure
    assert brackets is None or brackets == [(a, b)]
    assert a <= got <= b
    lower, upper = np.nextafter(got, 0.0), np.nextafter(got, np.inf)
    if strict:
        assert not resolvable(lower) and resolvable(upper)
    else:
        assert (not resolvable(lower) and resolvable(got)
                or not resolvable(got) and resolvable(upper))
    want, _ = bisection(resolvable, a, b)
    assert abs(got - want) <= rtol * want


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_xi_gather_equals_dense_selection_bitwise():
    for geom, sc in reference_scenarios():
        terms = analysis.error_terms(geom, sc)
        np.testing.assert_array_equal(terms.xi,
                                      xi_via_dense_selection(geom, terms))


def test_mse_matches_pair_loop():
    for geom, sc in reference_scenarios():
        for n in (100, 2000):
            want = mse_via_pair_loop(geom, sc, n)
            assert relative_gap(analysis.analytical_mse(geom, sc, n),
                                want) <= 1e-12


def test_crb_matches_per_column_whitening():
    # the eigenbasis row scaling against W C W with W = R^(-1/2) from
    # the eigendecomposition of R
    cases = list(reference_scenarios())
    # ula(3) holds 3 sources with an undefined CRB
    cases.append((geometry.ula(3),
                  model.SourceScenario.with_snr((-0.5, 0.1, 0.6), 10.0)))
    got = [analysis.crb(geom, sc, 500) for geom, sc in cases]
    want = [reference.crb_via_whitening(geom, sc, 500) for geom, sc in cases]
    assert [r.defined for r in got] == [r.defined for r in want]
    assert [r.defined for r in want].count(False) >= 1
    for g, w in zip(got, want):
        assert g.jacobian_rank == w.jacobian_rank
        assert relative_gap(g.fim, w.fim) <= 1e-12
        if w.defined:
            assert relative_gap(g.crb, w.crb) <= 1e-12


def crb_trace_form(geom, scenario, n_snapshots, digits=40):
    """The CRB's DOA block from the trace-form FIM in mpmath.

    FIM[p, q] = N Re tr(R^(-1) dR_p R^(-1) dR_q), inverted at
    ``digits`` significant digits from the float inputs taken as exact.
    """
    mp = pytest.importorskip('mpmath')
    with mp.workdps(digits):
        rate = mp.pi
        pos = [int(x) for x in geom.position_array()]
        m, k = len(pos), scenario.n_sources
        a = mp.matrix(m, k)
        a_dot = mp.matrix(m, k)
        for j, theta in enumerate(scenario.doas):
            for i in range(m):
                a[i, j] = mp.expj(pos[i] * rate * mp.sin(mp.mpf(theta)))
                a_dot[i, j] = (1j * pos[i] * rate * mp.cos(mp.mpf(theta))
                               * a[i, j])
        powers = [mp.mpf(x) for x in scenario.powers]

        def outer(x, y, j):
            return mp.matrix([[x[r, j] * mp.conj(y[c, j]) for c in range(m)]
                              for r in range(m)])

        derivs = [powers[j] * (outer(a_dot, a, j) + outer(a, a_dot, j))
                  for j in range(k)]
        derivs += [outer(a, a, j) for j in range(k)]
        derivs.append(mp.eye(m))
        r_mat = derivs[-1] * mp.mpf(scenario.noise_power)
        for j in range(k):
            r_mat += powers[j] * derivs[k + j]
        r_inv = mp.inverse(r_mat)
        white = [r_inv * d for d in derivs]
        size = len(white)
        fim = mp.matrix(size, size)
        for p in range(size):
            for q in range(p, size):
                tr = mp.fsum(white[p][r, c] * white[q][c, r]
                             for r in range(m) for c in range(m))
                fim[p, q] = fim[q, p] = n_snapshots * mp.re(tr)
        inv = mp.inverse(fim)
        return np.array([[float(inv[p, q]) for q in range(k)]
                         for p in range(k)])


@pytest.mark.parametrize('spec, k', [('mra:10', 6), ('coprime:3,5', 8),
                                     ('coprime:3,5', 1), ('mra:10', 12),
                                     ('coprime:3,5', 14), ('nested:4,6', 12)])
def test_crb_matches_high_precision_trace_form(spec, k):
    # at 60 dB the noise eigenvalues of R are 1e-6 of a source power;
    # the exact null eigenvalues of A P A^H keep them to full precision.
    # The last three have more sources than sensors (M = 10): there a
    # thin SVD of the whitened Jacobian in place of its QR is off by
    # 1.1e-11 to 7.8e-11
    geom = harness._parse_array(spec)
    sc = model.SourceScenario.with_snr(harness._fan(k), 60.0)
    want = crb_trace_form(geom, sc, 500)
    assert relative_gap(analysis.crb(geom, sc, 500).crb, want) <= 1e-12


def recorded_brackets(monkeypatch):
    """Record the (a, b) of every ``analysis._false_position`` call."""
    brackets = []
    real = analysis._false_position

    def recorded(excess, a, b, ga, gb):
        brackets.append((a, b))
        return real(excess, a, b, ga, gb)

    monkeypatch.setattr(analysis, '_false_position', recorded)
    return brackets


def recorded_stacks(monkeypatch):
    """Record the DOA stack of every ``analysis._mse_stack`` call."""
    stacks = []
    real = analysis._mse_stack

    def recorded(geom, doas, powers):
        stacks.append(np.array(doas, dtype=float))
        return real(geom, doas, powers)

    monkeypatch.setattr(analysis, '_mse_stack', recorded)
    return stacks


def test_resolution_threshold_never_repeats_a_doa_pair(monkeypatch):
    stacks = recorded_stacks(monkeypatch)
    for geom in (geometry.coprime(3, 5), geometry.nested(4, 6),
                 geometry.mra(10)):
        for snr in (-5.0, 20.0):
            for n in (100, 2000):
                stacks.clear()
                analysis._scan_stack.cache_clear()
                analysis.resolution_threshold(
                    geom, n, noise_power=10.0 ** (-snr / 10.0))
                pairs = [tuple(row) for stack in stacks for row in stack]
                assert len(stacks) > 2
                assert len(pairs) == len(set(pairs))


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type of the NumericalFailure it raised."""
    try:
        return fn(*args, **kwargs)
    except analysis.NumericalFailure as exc:
        return type(exc)


def threshold_grid():
    """The benchmark's threshold grid, plus a holey custom array."""
    for geom in (geometry.coprime(3, 5), geometry.nested(4, 6),
                 geometry.mra(10), geometry.custom((0, 2, 3, 7, 20))):
        for snr in (-5.0, 0.0, 5.0, 10.0, 20.0):
            for n in (100, 500, 2000):
                yield geom, n, 10.0 ** (-snr / 10.0)


# The most single-separation evaluations the polish makes on the grid
# of threshold_grid, at centre 30 deg.
POLISH_EVALUATIONS = 35


def test_resolution_threshold_matches_full_scan(monkeypatch):
    stacks = recorded_stacks(monkeypatch)
    brackets = recorded_brackets(monkeypatch)
    center = np.deg2rad(30.0)
    values = 0
    builds = {}
    for geom, n, noise in threshold_grid():
        stacks.clear()
        brackets.clear()
        got = outcome(analysis.resolution_threshold, geom, n,
                      center=center, power=1.0, noise_power=noise)
        sizes = [len(stack) for stack in stacks]
        check_threshold(got, geom, n, analysis.analytical_mse,
                        center=center, noise_power=noise, brackets=brackets)
        # a build of the whole scan in one call, then the polish one
        # separation per call
        scan = analysis._threshold_scan(geom, center)
        if sizes and sizes[0] == scan.size:
            np.testing.assert_array_equal(stacks[0],
                                          scan_pairs(center, scan))
            builds[geom] = builds.get(geom, 0) + 1
            sizes = sizes[1:]
        assert sizes == [1] * len(sizes)
        assert len(sizes) <= POLISH_EVALUATIONS
        if got is not analysis.NumericalFailure:
            values += 1
        else:
            assert not sizes
    assert values >= 55
    # the 15 (SNR, N) thresholds of an array share one build of its scan
    assert list(builds.values()) == [1] * 4


def test_resolution_threshold_equals_the_sequential_reference():
    center = np.deg2rad(30.0)
    got, want = [], []
    for geom, n, noise in threshold_grid():
        for route, results in ((analysis.resolution_threshold, got),
                               (reference.resolution_threshold, want)):
            results.append(outcome(route, geom, n, center=center,
                                   power=1.0, noise_power=noise))
    assert got == want
    # near endfire, where some cases raise NumericalFailure
    for geom in (geometry.mra(10), geometry.ula(3)):
        for center_deg in (88.0, 89.5, -89.5):
            for n, noise in ((500, 1.0), (50_000, 1e-3)):
                args = (geom, n)
                kwargs = dict(center=np.deg2rad(center_deg),
                              noise_power=noise)
                got.append(outcome(analysis.resolution_threshold, *args,
                                   **kwargs))
                want.append(outcome(reference.resolution_threshold, *args,
                                    **kwargs))
    assert got == want
    assert analysis.NumericalFailure in want


@pytest.mark.parametrize('geom', [geometry.coprime(3, 5),
                                  geometry.nested(4, 6),
                                  geometry.custom((0, 2, 3, 7, 20))],
                         ids=['coprime35', 'nested46', 'custom'])
def test_mse_stack_rows_equal_one_row_calls(geom):
    rng = np.random.default_rng(19)
    mv = geometry.difference_coarray(geom).mv
    failed = 0
    for k in range(1, mv):
        doas = np.sort(rng.uniform(-1.4, 1.4, size=(4, k)), axis=1)
        powers = rng.uniform(0.5, 2.0, size=k)
        terms, coeffs = analysis._mse_stack(geom, doas, powers)
        for i, row in enumerate(doas):
            sc = model.SourceScenario(tuple(row), tuple(powers), 1.0)
            if np.any(terms.gamma[i] <= 0):
                failed += 1
                with pytest.raises(analysis.NumericalFailure):
                    analysis.mse_coefficients(geom, sc)
                continue
            one = analysis.error_terms(geom, sc)
            assert one.mv == terms.mv == mv
            for name in ('alpha', 'beta', 'gamma', 'xi'):
                np.testing.assert_array_equal(getattr(one, name),
                                              getattr(terms, name)[i])
            one = analysis.mse_coefficients(geom, sc)
            for name in ('q0', 'q1', 'q2', 'scale'):
                np.testing.assert_array_equal(getattr(one, name),
                                              getattr(coeffs, name)[i])
    assert failed < 4 * (mv - 1)


@pytest.mark.parametrize('n', [-5, 0, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_closed_forms_reject_snapshot_counts_that_are_not_positive(n):
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario((0.5, 0.52), (1.0, 1.0), 0.1)
    coeffs = analysis.mse_coefficients(geom, sc)
    bound = analysis.crb_coefficients(geom, sc)
    for call in (lambda: coeffs.mse(0.1, n),
                 lambda: coeffs.mse([0.1, 0.2], [500, n]),
                 lambda: bound.report(0.1, n),
                 lambda: bound.reports([0.1, 0.2], [n, 500]),
                 lambda: analysis.analytical_mse(geom, sc, n),
                 lambda: analysis.crb(geom, sc, n),
                 lambda: analysis.resolution_threshold(geom, n)):
        with pytest.raises(ValueError, match='snapshot counts must be '
                                             'finite and positive'):
            call()


# Signed excesses, positive below the root, with a bracket of it.
POLISH_CASES = {
    'smooth': (lambda x: 1.0 / x ** 2 - 1.0 / 0.7 ** 2, 0.1, 3.0),
    # the false-position point carries no information on a step
    'step': (lambda x: 1.0 if x < 0.7318 else -1.0, 0.1, 3.0),
    'lopsided step': (lambda x: 1.0 if x < 0.10001 else -1e-3, 0.1, 3.0),
    # the sign is noise within about 1e-9 of the root
    'noise band': (lambda x: 0.3 - x + 1e-9 * np.sin(1e15 * x), 0.1, 0.5),
    'nan inside': (lambda x: np.nan if 0.1 < x < 0.55 else 0.36 - x * x,
                   0.0, 1.0),
}


@pytest.mark.parametrize('name', POLISH_CASES)
def test_false_position_ends_on_adjacent_floats(name):
    excess, a, b = POLISH_CASES[name]
    calls = []

    def counted(x):
        calls.append(x)
        return excess(x)

    lo, hi = analysis._false_position(counted, a, b, excess(a), excess(b))
    assert a <= lo < hi <= b
    assert np.nextafter(lo, hi) == hi
    assert excess(lo) > 0 >= excess(hi)
    assert all(a < x < b for x in calls)
    # any three steps at least halve the bracket
    _, steps = bisection(lambda x: excess(x) <= 0, a, b)
    assert len(calls) <= 3 * steps
    if name in POLISH_STEPS:
        assert len(calls) == POLISH_STEPS[name]


# Steps where a secant point lands on an end whose excess is exactly 0:
# every later secant point is that end, so the midpoint rule bisects
# what is left of the bracket.
POLISH_STEPS = {'smooth': 38, 'nan inside': 53}
