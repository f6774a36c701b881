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

from coarray_lab import analysis, geometry, model, reference


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
    rate = 2.0 * np.pi * geom.d0 / geom.wavelength
    theta = np.asarray(scenario.doas)
    lags = np.arange(mv)
    av = np.exp(1j * rate * np.outer(lags, np.sin(theta)))
    av_dot = 1j * rate * np.cos(theta)[None, :] * lags[:, None] * av
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
        av, _ = model.steering_matrix(
            geometry.ula(terms.mv, geom.d0, geom.wavelength), sc)
        np.testing.assert_array_equal(
            terms.alpha, -np.linalg.pinv(av, rcond=analysis._RANK_RCOND))
        assert np.all(np.linalg.norm(terms.beta, axis=1) > 1e-8)
        assert np.all(np.linalg.norm(terms.xi, axis=1) > 1e-8)
        assert np.all(terms.gamma > 0)


def cold(fn, *args):
    """A call made with the error-term memo emptied first."""
    analysis._TERMS_CACHE.clear()
    return fn(*args)


def assert_terms_equal(got, want):
    assert got.mv == want.mv
    for name in ('alpha', 'beta', 'gamma', 'xi'):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_error_terms_memo_holds_one_read_only_entry():
    geom = geometry.coprime(3, 5)
    doas = np.deg2rad([-20.0, 10.0, 45.0])
    sc = model.SourceScenario.with_snr(doas, 0.0)
    terms = analysis.error_terms(geom, sc)
    # powers and noise do not enter the terms
    louder = model.SourceScenario(sc.doas, (2.0, 1.0, 3.0), 0.1)
    assert analysis.error_terms(geometry.coprime(3, 5), louder) is terms
    assert len(analysis._TERMS_CACHE) == 1
    for name in ('alpha', 'beta', 'gamma', 'xi'):
        arr = getattr(terms, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert_terms_equal(terms, cold(analysis.error_terms, geom, sc))


def test_error_terms_memo_tells_spacing_and_wavelength_apart():
    pos = (0, 2, 3, 7, 20)
    geoms = [geometry.custom(pos), geometry.custom(pos, d0=0.25),
             geometry.custom(pos, wavelength=2.0)]
    sc = model.SourceScenario.with_snr(np.deg2rad([-10.0, 35.0]), 5.0)
    want = [cold(analysis.error_terms, g, sc) for g in geoms]
    assert not np.array_equal(want[0].xi, want[1].xi)
    for g, w in zip(geoms + geoms[::-1], want + want[::-1]):
        assert_terms_equal(analysis.error_terms(g, sc), w)
        assert len(analysis._TERMS_CACHE) == 1


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
    want = [cold(analysis.analytical_mse, g, sc, 500) for g, sc in cases]
    for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (0, 3, 4, 0, 3)):
        for i in order:
            g, sc = cases[i]
            np.testing.assert_array_equal(
                analysis.analytical_mse(g, sc, 500), want[i])
            assert len(analysis._TERMS_CACHE) == 1


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


def whitened_per_column(geom, scenario):
    """The model Jacobian whitened column by column, W C W per column."""
    jac = analysis.model_jacobian(geom, scenario)
    lam, u = np.linalg.eigh(model.true_covariance(geom, scenario))
    r_isqrt = (u * (1.0 / np.sqrt(lam))) @ u.conj().T
    m = geom.n_sensors
    return np.stack([model.vec(r_isqrt @ model.unvec(c, m) @ r_isqrt)
                     for c in jac.T], axis=1)


def threshold_full_scan(geom, n_snapshots, mse, center=np.deg2rad(30.0),
                        noise_power=1.0):
    """Threshold from all 80 scan points and all 60 bisection steps."""
    def excess(delta):
        sc = model.SourceScenario(
            (center - delta / 2.0, center + delta / 2.0), (1.0, 1.0),
            noise_power)
        cov = mse(geom, sc, n_snapshots)
        return np.sqrt(cov[0, 0]) + np.sqrt(cov[1, 1]) - delta

    deltas = np.geomspace(np.deg2rad(1e-3), np.deg2rad(6.0), 80)
    values = np.array([excess(d) for d in deltas])
    cross = np.nonzero((values[:-1] > 0) & (values[1:] <= 0))[0]
    if cross.size == 0:
        raise analysis.NumericalFailure('no crossing in the full scan')
    a, b = deltas[cross[0]], deltas[cross[0] + 1]
    for _ in range(60):
        mid = 0.5 * (a + b)
        if excess(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


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


def test_crb_matches_per_column_whitening(monkeypatch):
    cases = list(reference_scenarios())
    # ula(3) holds 3 sources with an undefined CRB
    cases.append((geometry.ula(3),
                  model.SourceScenario.with_snr((-0.5, 0.1, 0.6), 10.0)))
    got = [analysis.crb(geom, sc, 500) for geom, sc in cases]
    monkeypatch.setattr(analysis, '_whitened_jacobian', whitened_per_column)
    want = [analysis.crb(geom, sc, 500) for geom, sc in cases]
    assert [r.defined for r in got] == [r.defined for r in want]
    assert [r.defined for r in want].count(False) >= 1
    for g, w in zip(got, want):
        assert g.jacobian_rank == w.jacobian_rank
        assert relative_gap(g.fim, w.fim) <= 1e-12
        if w.defined:
            assert relative_gap(g.crb, w.crb) <= 1e-12


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type of the NumericalFailure it raised."""
    try:
        return fn(*args, **kwargs)
    except analysis.NumericalFailure as exc:
        return type(exc)


def test_resolution_threshold_matches_full_scan(monkeypatch):
    # the benchmark's threshold grid, plus a holey custom array
    calls = []
    real = analysis.analytical_mse

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, 'analytical_mse', counted)
    center = np.deg2rad(30.0)
    values = 0
    for geom in (geometry.coprime(3, 5), geometry.nested(4, 6),
                 geometry.mra(10), geometry.custom((0, 2, 3, 7, 20))):
        for snr in (-5.0, 0.0, 5.0, 10.0, 20.0):
            noise = 10.0 ** (-snr / 10.0)
            for n in (100, 500, 2000):
                calls.clear()
                got = outcome(analysis.resolution_threshold, geom, n,
                              center=center, power=1.0, noise_power=noise)
                used = len(calls)
                want = outcome(threshold_full_scan, geom, n, real,
                               center=center, noise_power=noise)
                assert got == want
                if got is not analysis.NumericalFailure:
                    values += 1
                    # at most 11 coarse points and 7 fine ones, then up
                    # to 49 bisection steps on this grid (the full scan
                    # took 80 + ~50)
                    assert used <= 67
    assert values >= 55
