"""Release acceptance gates.

Nine end-to-end criteria covering the augmentation identity, the
selection-matrix symmetries, Monte Carlo agreement of the closed-form
MSE, the perturbation-moment oracles, resolution prediction, CRB
behavior, statistical efficiency trends, the aperture scaling law, and
derivative/FIM hygiene. Each test reports one PASS/FAIL line with its
measured margins, replayed in the terminal summary; the unit suites
cover implementation details.

The Monte Carlo gates (3, 5) run a few minutes each at full trial
counts; everything else is seconds.
"""

import numpy as np

from coarray_lab import (analysis, estimator, geometry, harness, model,
                         reference)
from coarray_lab.harness import ExperimentConfig

BENCH_ARRAYS = (
    ('coprime', geometry.coprime(3, 5)),
    ('nested', geometry.nested(4, 6)),
    ('mra', geometry.mra(10)),
)


def _random_scenario(rng, k, span=1.2, min_sep=0.12):
    while True:
        doas = np.sort(rng.uniform(-span, span, size=k))
        if k == 1 or np.min(np.diff(doas)) > min_sep:
            break
    return model.SourceScenario(tuple(doas),
                                tuple(rng.uniform(0.5, 2.0, size=k)),
                                float(rng.uniform(0.2, 2.0)))


def _exact_z(geom, scenario):
    co = geometry.difference_coarray(geom)
    return model.virtual_observation(
        co, model.true_covariance(geom, scenario)), co.mv


def test_criterion_1_augmentation_identity(acceptance_report):
    # smoothed augmentation = direct augmentation squared over mv, on
    # exact covariances, for benchmark arrays and random scenarios
    rng = np.random.default_rng(101)
    worst = 0.0
    for _, geom in BENCH_ARRAYS:
        mv = geometry.difference_coarray(geom).mv
        scenarios = [model.SourceScenario.with_snr(
            np.deg2rad(np.linspace(-67.5, 56.25, 11)), 0.0)]
        for k in (1, 3, min(12, mv - 1)):
            scenarios.append(_random_scenario(rng, k))
        for sc in scenarios:
            z, mv = _exact_z(geom, sc)
            rv1 = estimator.augment_direct(z, mv)
            rv2 = estimator.augment_spatial_smoothing(z, mv)
            rel = (np.linalg.norm(rv2 - rv1 @ rv1 / mv)
                   / np.linalg.norm(rv2))
            worst = max(worst, rel)
    acceptance_report(1, worst < 1e-10,
             f'smoothed == direct^2/mv, worst relative error {worst:.2e} '
             '(tolerance 1e-10)')


def test_criterion_2_selection_matrix_lemmas(acceptance_report):
    # printed toy values, exactly
    toy = geometry.custom([0, 1, 4])
    co = geometry.difference_coarray(toy)
    f_toy = geometry.selection_matrix(co)
    expected = np.array([
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [1 / 3, 0, 0, 0, 1 / 3, 0, 0, 0, 1 / 3],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
    ])
    toy_f_ok = bool(np.array_equal(f_toy, expected))
    rng = np.random.default_rng(202)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = g + g.conj().T
    z_toy = f_toy @ model.vec(h)
    toy_z_ok = (abs(z_toy[0] - h[0, 1]) < 1e-15
                and abs(z_toy[1] - np.trace(h) / 3.0) < 1e-15
                and abs(z_toy[2] - h[1, 0]) < 1e-15)

    worst_sym = 0.0
    worst_herm = 0.0
    flip_ok = True
    for _, geom in BENCH_ARRAYS:
        co = geometry.difference_coarray(geom)
        f = geometry.selection_matrix(co)
        m = geom.n_sensors
        f3 = f.reshape(2 * co.mv - 1, m, m)
        flip_ok &= bool(np.array_equal(np.flip(f3, axis=0),
                                       f3.transpose(0, 2, 1)))
        for _ in range(100):
            g = (rng.standard_normal((m, m))
                 + 1j * rng.standard_normal((m, m)))
            h = g + g.conj().T
            z = f @ model.vec(h)
            worst_sym = max(worst_sym,
                            float(np.max(np.abs(z - np.conj(z[::-1])))))
            back = model.unvec(f.T @ z, m)
            worst_herm = max(worst_herm,
                             float(np.max(np.abs(back - back.conj().T))))
    ok = (toy_f_ok and toy_z_ok and flip_ok
          and worst_sym < 1e-12 and worst_herm < 1e-12)
    acceptance_report(2, ok,
             f'toy F exact {toy_f_ok}, toy z exact {toy_z_ok}, '
             f'lag-flip symmetry {flip_ok}, conj-symmetry dev '
             f'{worst_sym:.2e}, hermitian dev {worst_herm:.2e} '
             '(tolerance 1e-12)')


def test_criterion_3_mse_verification(acceptance_report):
    # closed-form MSE vs 2000-trial simulation, both augmentations,
    # eleven-source fan, two SNRs, two snapshot counts
    cfg = ExperimentConfig(kind='verify_mse', snr_db=(0.0, 10.0),
                           n_snapshots=(250, 1000), n_trials=2000,
                           method='both')
    table = harness.run(cfg)['verify_mse']
    named = [dict(zip(table.header, row)) for row in table.rows]
    worst_rel = max(row['rel_err'] for row in named)
    finite = all(np.isfinite(row['rel_err']) for row in named)
    pairs = {}
    for row in named:
        key = (row['array'], row['snr_db'], row['n_snapshots'])
        pairs.setdefault(key, {})[row['method']] = row['mse_em_rad2']
    worst_gap = max(abs(p['da'] - p['ss']) / p['ss'] for p in pairs.values())
    failed = sum(row['failed_trials'] for row in named)
    ss_dev, differ = _smoothed_music_deviation(draws=30, snr_db=0.0, n=20)
    ok = (finite and worst_rel <= 0.15 and worst_gap <= 0.05
          and ss_dev <= 1e-8)
    acceptance_report(3, ok,
             f'{len(named)} sweep points x 2000 trials: worst '
             f'|an-em|/em {worst_rel:.3f} (<= 0.15), worst DA/SS gap '
             f'{worst_gap:.4f} (<= 0.05), failed trials {failed}; SS vs '
             f'formed Rv_ss on 3 x 30 draws: worst {ss_dev:.2e} rad '
             f'(<= 1e-8), DA and SS estimates differ on {differ} draws')


def _smoothed_music_deviation(draws, snr_db, n):
    """Production SS MUSIC against MUSIC on an explicitly formed Rv_ss.

    For Wishart draws of R_hat on each benchmark array, Rv_ss is built
    as sum_i z_i z_i^H / mv from :func:`reference.subarray_select`,
    checked against :func:`estimator.augment_spatial_smoothing`, and
    decomposed on its own. Returns the largest angle gap to
    ``run_music(..., method='ss')`` (inf when the verdicts or counts
    differ) and the number of draws where the DA and SS estimates
    differ, on which the SS route is not the DA one.
    """
    doas = np.deg2rad(harness._DEFAULT_VERIFY_DOAS_DEG)
    sc = model.SourceScenario.with_snr(doas, snr_db)
    k = sc.n_sources
    worst, differ = 0.0, 0
    for _, geom in BENCH_ARRAYS:
        co = geometry.difference_coarray(geom)
        mv = co.mv
        chol = np.linalg.cholesky(model.true_covariance(geom, sc))
        for trial in range(draws):
            seed = np.random.SeedSequence(entropy=303, spawn_key=(trial,))
            z = model.virtual_observation(
                co, model.sample_covariance_draw(chol, n, seed))
            subs = np.stack([reference.subarray_select(z, i, mv)
                             for i in range(1, mv + 1)], axis=1)
            rv_ss = subs @ subs.conj().T / mv
            aug = estimator.augment_spatial_smoothing(z, mv)
            if np.linalg.norm(aug - rv_ss) > 1e-12 * np.linalg.norm(rv_ss):
                return float('inf'), differ
            want = estimator.estimate_doas(
                estimator.noise_subspace(rv_ss, k), k)
            got = estimator.run_music(z, mv, k, method='ss')
            da = estimator.run_music(z, mv, k, method='da')
            differ += not np.array_equal(got.angles, da.angles)
            if (got.resolved != want.resolved
                    or got.angles.shape != want.angles.shape):
                return float('inf'), differ
            if got.angles.size:
                worst = max(worst, float(np.max(np.abs(got.angles
                                                       - want.angles))))
    return worst, differ


def test_criterion_4_moment_oracles(acceptance_report):
    # expanded moment route vs simplified quadratic form
    rng = np.random.default_rng(404)
    worst = 0.0
    for geom in (geometry.coprime(2), geometry.nested(2, 3)):
        for _ in range(10):
            sc = _random_scenario(rng, int(rng.integers(1, 4)))
            a = analysis.analytical_mse(geom, sc, 300)
            b = reference.analytical_mse_via_moments(geom, sc, 300)
            worst = max(worst,
                        float(np.linalg.norm(a - b) / np.linalg.norm(b)))
    routes_ok = worst < 1e-10

    # sampled perturbation moments on a 3-sensor array
    geom = geometry.ula(3)
    sc = model.SourceScenario(tuple(np.deg2rad([-20.0, 35.0])),
                              (1.0, 1.5), 0.8)
    n = 50
    trials = 200_000
    chunk = 20_000
    a_mat, _ = model.steering_matrix(geom, sc)
    truth = model.true_covariance(geom, sc)
    targets = reference.delta_r_moment_oracle(truth, n)
    r_true = model.vec(truth)
    amp = np.sqrt(np.asarray(sc.powers) / 2.0)
    nse_amp = np.sqrt(sc.noise_power / 2.0)
    dim = geom.n_sensors ** 2
    sums = [np.zeros((dim, dim)) for _ in range(3)]
    sums_sq = [np.zeros((dim, dim)) for _ in range(3)]
    moment_rng = np.random.default_rng(777)
    for _ in range(trials // chunk):
        x = amp[None, :, None] * (
            moment_rng.standard_normal((chunk, 2, n))
            + 1j * moment_rng.standard_normal((chunk, 2, n)))
        noise = nse_amp * (moment_rng.standard_normal((chunk, 3, n))
                           + 1j * moment_rng.standard_normal((chunk, 3, n)))
        y = np.einsum('mk,tkn->tmn', a_mat, x) + noise
        r_hat = np.einsum('tmn,tpn->tmp', y, y.conj()) / n
        dr = r_hat.transpose(0, 2, 1).reshape(chunk, dim) - r_true[None, :]
        re, im = dr.real, dr.imag
        for idx, (u, v) in enumerate(((re, re), (im, im), (re, im))):
            sums[idx] += u.T @ v
            sums_sq[idx] += (u ** 2).T @ (v ** 2)
    worst_sigma = 0.0
    for idx in range(3):
        mean = sums[idx] / trials
        var = np.maximum(sums_sq[idx] / trials - mean ** 2, 0.0)
        se = np.sqrt(var / trials)
        dev = np.abs(mean - targets[idx])
        sampled_ok = np.all(dev <= 4.0 * se + 1e-12)
        with np.errstate(divide='ignore', invalid='ignore'):
            ratio = np.where(se > 0, dev / se, 0.0)
        worst_sigma = max(worst_sigma, float(np.max(ratio)))
        if not sampled_ok:
            break
    else:
        sampled_ok = True
    ok = routes_ok and bool(sampled_ok)
    acceptance_report(4, ok,
             f'route agreement {worst:.2e} (< 1e-10); sampled moments '
             f'over {trials} trials, worst deviation {worst_sigma:.2f} '
             'standard errors (<= 4)')


def test_criterion_5_resolution_prediction(acceptance_report):
    # empirical 50% resolution crossing vs the predicted threshold
    cfg = ExperimentConfig(kind='resolution', snr_db=(0.0,),
                           n_snapshots=(500,), n_trials=500, method='ss')
    table = harness.run(cfg)['resolution']
    named = [dict(zip(table.header, row)) for row in table.rows]
    details = []
    ok = True
    thresholds = {}
    for label, geom in BENCH_ARRAYS:
        rows = sorted((r for r in named if r['array'] == geom.name),
                      key=lambda r: r['delta_deg'])
        deltas = [r['delta_deg'] for r in rows]
        probs = [r['p_resolve'] for r in rows]
        threshold = rows[0]['predicted_threshold_deg']
        thresholds[label] = threshold
        crossing = harness.fifty_percent_crossing(deltas, probs)
        ratio = crossing / threshold
        ok &= 0.5 <= ratio <= 1.5
        ok &= probs[0] <= 0.05 and probs[-1] >= 0.95
        details.append(f'{label}: crossing {crossing:.3f} deg vs predicted '
                       f'{threshold:.3f} deg (ratio {ratio:.2f}), '
                       f'P({deltas[0]:.1f})={probs[0]:.2f}, '
                       f'P({deltas[-1]:.1f})={probs[-1]:.2f}')
    ordered = thresholds['mra'] < thresholds['nested'] < thresholds['coprime']
    ok &= ordered
    acceptance_report(5, ok,
             '; '.join(details) + f'; aperture ordering holds {ordered}')


def test_criterion_6_crb_properties(acceptance_report):
    geom = geometry.coprime(3, 5)
    # invariance under joint power/noise scaling
    fan6 = np.deg2rad(np.linspace(-60.0, 60.0, 6))
    sc = model.SourceScenario.with_snr(fan6, 0.0)
    base = analysis.crb(geom, sc, 500)
    scaled = analysis.crb(geom, sc.scaled(100.0), 500)
    inv_dev = float(np.max(np.abs(base.crb - scaled.crb)
                           / np.abs(base.crb)))
    # single source: the bound falls monotonically toward zero
    traces = []
    for snr in range(-10, 61, 5):
        sc1 = model.SourceScenario.with_snr((0.0,), snr)
        traces.append(float(np.trace(analysis.crb(geom, sc1, 500).crb)))
    mono = all(b < a for a, b in zip(traces, traces[1:]))
    decay = traces[-1] / traces[0]
    # more sources than sensors: the bound stays PD and saturates
    fan12 = np.deg2rad(np.linspace(-60.0, 60.0, 12))
    tr = {}
    pd_ok = True
    for snr in (50, 60):
        report = analysis.crb(
            geom, model.SourceScenario.with_snr(fan12, snr), 500)
        pd_ok &= report.defined and bool(
            np.all(np.linalg.eigvalsh(report.crb) > 0))
        tr[snr] = float(np.trace(report.crb))
    sat = abs(tr[60] - tr[50]) / tr[50]
    ok = inv_dev < 1e-10 and mono and decay < 1e-5 and pd_ok and sat < 0.01
    acceptance_report(6, ok,
             f'scale invariance {inv_dev:.2e} (< 1e-10); K=1 monotone '
             f'{mono}, 70 dB decay factor {decay:.2e}; K=12>M PD {pd_ok}, '
             f'trace change 50->60 dB {sat:.2e} (< 0.01)')


def test_criterion_7_efficiency_trends(acceptance_report):
    details = []
    ok = True
    for label, geom in BENCH_ARRAYS:
        def kappa(k, snr):
            doas = (0.0,) if k == 1 else np.deg2rad(np.linspace(-60, 60, k))
            sc = model.SourceScenario.with_snr(doas, snr)
            return analysis.efficiency_kappa(
                analysis.crb(geom, sc, 500),
                analysis.analytical_mse(geom, sc, 500))

        k1 = [kappa(1, snr) for snr in range(-10, 61, 10)]
        k1_mono = all(b > a for a, b in zip(k1, k1[1:]))
        k6_0, k6_20 = kappa(6, 0.0), kappa(6, 20.0)
        k12_50, k12_60 = kappa(12, 50.0), kappa(12, 60.0)
        k12_flat = abs(k12_60 - k12_50) / k12_50
        array_ok = (k1_mono and k6_20 < k6_0 and k6_20 < 0.3
                    and k12_60 > 0.05 and k12_flat < 0.10)
        ok &= array_ok
        details.append(f'{label}: K=1 rising {k1_mono}, K=6 '
                       f'{k6_0:.3f}->{k6_20:.3f}, K=12 {k12_60:.3f} '
                       f'(drift {k12_flat:.3f})')
    # one empirical spot check through the harness
    cfg = ExperimentConfig(kind='efficiency', arrays=('coprime:3,5',),
                           k_sources=(6,), snr_db=(0.0,),
                           n_snapshots=(1000,), n_trials=1000,
                           empirical=True)
    eff = harness.run(cfg)['efficiency']
    row = dict(zip(eff.header, eff.rows[0]))
    spot_dev = abs(row['kappa_empirical'] - row['kappa_analytic']) \
        / row['kappa_analytic']
    ok &= spot_dev < 0.15
    details.append(f'empirical spot {row["kappa_empirical"]:.3f} vs '
                   f'{row["kappa_analytic"]:.3f} (dev {spot_dev:.3f}, '
                   f'{row["failed_trials"]} failed trials)')
    acceptance_report(7, ok, '; '.join(details))


def test_criterion_8_scaling_law(acceptance_report):
    cfg = ExperimentConfig(kind='scaling', snr_db=(0.0,),
                           n_snapshots=(1000,))
    table = harness.run(cfg)['scaling']
    named = [dict(zip(table.header, row)) for row in table.rows]
    slopes = {}
    for row in named:
        slopes[(row['family'], row['k_mode'])] = row['fitted_slope']
    windows_ok = True
    for family in ('coprime', 'nested'):
        windows_ok &= -5.0 <= slopes[(family, 'one')] <= -4.0
        windows_ok &= -4.0 <= slopes[(family, 'm')] <= -3.0
    all_steep = all(s < -3.0 for s in slopes.values())
    ok = windows_ok and all_steep
    text = ', '.join(f'{fam}/{mode} {s:.2f}'
                     for (fam, mode), s in sorted(slopes.items()))
    acceptance_report(8, ok,
             f'log-log slopes {text}; window checks {windows_ok}, '
             f'all < -3 {all_steep}')


def test_criterion_9_numerical_hygiene(acceptance_report):
    # steering derivative and covariance Jacobian vs central differences
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario(tuple(np.deg2rad([-25.0, 10.0, 40.0])),
                              (1.0, 1.4, 0.7), 0.9)
    h = 1e-6
    _, a_dot = model.steering_matrix(geom, sc)
    worst_adot = 0.0
    for j, theta in enumerate(sc.doas):
        numeric = (model.steering_vector(geom, theta + h)
                   - model.steering_vector(geom, theta - h)) / (2 * h)
        worst_adot = max(worst_adot,
                         float(np.max(np.abs(a_dot[:, j] - numeric))
                               / np.max(np.abs(numeric))))
    jac = analysis.model_jacobian(geom, sc)

    def r_of(doas, powers, noise):
        return model.vec(model.true_covariance(
            geom, model.SourceScenario(doas, powers, noise)))

    cols = []
    for j in range(3):
        lo, hi = list(sc.doas), list(sc.doas)
        lo[j] -= h
        hi[j] += h
        cols.append((r_of(tuple(hi), sc.powers, sc.noise_power)
                     - r_of(tuple(lo), sc.powers, sc.noise_power)) / (2 * h))
    for j in range(3):
        lo, hi = list(sc.powers), list(sc.powers)
        lo[j] -= h
        hi[j] += h
        cols.append((r_of(sc.doas, tuple(hi), sc.noise_power)
                     - r_of(sc.doas, tuple(lo), sc.noise_power)) / (2 * h))
    cols.append((r_of(sc.doas, sc.powers, sc.noise_power + h)
                 - r_of(sc.doas, sc.powers, sc.noise_power - h)) / (2 * h))
    numeric = np.stack(cols, axis=1)
    worst_jac = float(np.max(np.abs(jac - numeric)) / np.max(np.abs(jac)))

    # quadratic-form FIM vs the trace form
    worst_fim = 0.0
    for geom_f in (geometry.coprime(2), geometry.nested(2, 3)):
        sc_f = model.SourceScenario((-0.35, 0.2), (1.3, 0.9), 0.6)
        a, ad = model.steering_matrix(geom_f, sc_f)
        r_inv = np.linalg.inv(model.true_covariance(geom_f, sc_f))
        derivs = []
        for j in range(2):
            outer = np.outer(ad[:, j], a[:, j].conj())
            derivs.append(sc_f.powers[j] * (outer + outer.conj().T))
        for j in range(2):
            derivs.append(np.outer(a[:, j], a[:, j].conj()))
        derivs.append(np.eye(geom_f.n_sensors, dtype=complex))
        trace_form = np.array(
            [[300 * np.real(np.trace(dp @ r_inv @ dq @ r_inv))
              for dq in derivs] for dp in derivs])
        direct = analysis.crb(geom_f, sc_f, 300).fim
        worst_fim = max(worst_fim,
                        float(np.linalg.norm(direct - trace_form)
                              / np.linalg.norm(trace_form)))

    # non-degeneracy of the error functionals
    rng = np.random.default_rng(909)
    nondegenerate = True
    for i in range(100):
        _, geom_r = BENCH_ARRAYS[i % 3]
        sc_r = _random_scenario(rng, int(rng.integers(1, 6)))
        terms = analysis.error_terms(geom_r, sc_r)
        nondegenerate &= bool(
            np.all(np.linalg.norm(terms.beta, axis=1) > 1e-8)
            and np.all(np.linalg.norm(terms.xi, axis=1) > 1e-8)
            and np.all(terms.gamma > 0))
    ok = (worst_adot < 1e-5 and worst_jac < 1e-5
          and worst_fim < 1e-10 and nondegenerate)
    acceptance_report(9, ok,
             f'steering derivative dev {worst_adot:.2e}, jacobian dev '
             f'{worst_jac:.2e} (< 1e-5); FIM route agreement '
             f'{worst_fim:.2e} (< 1e-10); 100-scenario non-degeneracy '
             f'{nondegenerate}')
