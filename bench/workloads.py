"""The benchmark's three workloads and the checks on their outputs.

Each workload is a list of parts. A part either runs ``coarray-lab run``
on a config (the user path) or, for the resolution thresholds of
``closed_form``, calls ``analysis.resolution_threshold`` directly.

Why these workloads:

- ``mc_verify`` is the criterion-3 sweep with fewer trials. Eleven
  sources and ``method: both`` make the estimator (grid scan, peak
  refinement, two eigensystems per trial) most of the time, so batched
  refinement or a shared DA/SS eigensystem shows here.
- ``mc_resolution`` is the criterion-5 sweep with fewer trials: two
  sources, SS only, 57 short sweep points. Simulation and per-trial
  harness overhead weigh most; a shared DA/SS eigensystem must show no
  change here.
- ``closed_form`` has no trials. It is all ``analysis`` and
  ``geometry``: few large-M calls (scaling up to coprime(16)) and
  thousands of small K=2 calls (resolution thresholds).

The checks hold at any seed and any trial count of at least two: the
Monte Carlo tolerances widen with the tables' own standard errors.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

ARRAYS = ('coprime:3,5', 'nested:4,6', 'mra:10')

# Trials per sweep point, sized so one pass takes a few seconds.
VERIFY_TRIALS = 30
RESOLUTION_TRIALS = 20

THRESHOLD_SNR_DB = (-5.0, 0.0, 5.0, 10.0, 20.0)
THRESHOLD_N = (100, 500, 2000)
THRESHOLD_CENTER_DEG = 30.0

# Standard errors a Monte Carlo estimate may stray from its target.
# Per-trial squared errors are heavy-tailed, so a few-trial standard
# error underestimates the spread; hence a wide multiple.
SE_MULTIPLE = 5.0
# Allowance for the first-order closed form's own bias, relative.
MSE_BIAS = 0.10
# Binomial standard errors a resolution probability may stray.
BINOMIAL_MULTIPLE = 4.0
# Criterion 3: the DA and SS empirical MSEs agree to 5%.
DA_SS_GAP = 0.05
# Criterion 5: P(0.3 deg) <= 0.05, P(3.0 deg) >= 0.95 and the 50%
# crossing within [0.5, 1.5] times the predicted threshold.
P_EDGE = 0.05
CROSSING_RATIO = (0.5, 1.5)
# Criterion 8 windows for the fitted log-log slopes.
SLOPE_WINDOWS = {'one': (-5.0, -4.0), 'm': (-4.0, -3.0)}
SLOPE_CEILING = -3.0
# Rounding slack on kappa <= 1.
KAPPA_SLACK = 1e-12


@dataclass(frozen=True)
class Part:
    """One timed step of a pass.

    Attributes:
        label: Name of the part; its span is ``<workload>.<label>``.
        config: Config mapping for ``coarray-lab run``, or None for the
            direct threshold calls.
        seeded: Whether the workload seed is passed on as ``--seed``.
    """

    label: str
    config: dict | None = None
    seeded: bool = False


WORKLOADS = {
    'mc_verify': [Part('verify', {
        'kind': 'verify_mse', 'arrays': list(ARRAYS),
        'snr_db': [0.0, 10.0], 'n_snapshots': [250, 1000],
        'n_trials': VERIFY_TRIALS, 'method': 'both'}, seeded=True)],
    'mc_resolution': [Part('resolution', {
        'kind': 'resolution', 'arrays': list(ARRAYS), 'snr_db': [0.0],
        'n_snapshots': [500], 'n_trials': RESOLUTION_TRIALS,
        'method': 'ss'}, seeded=True)],
    'closed_form': [
        Part('efficiency', {
            'kind': 'efficiency', 'arrays': list(ARRAYS),
            'k_sources': [1, 2, 4, 6, 8, 10, 12, 14],
            'snr_db': [float(s) for s in range(-20, 61, 2)],
            'n_snapshots': [500], 'empirical': False}),
        Part('scaling', {
            'kind': 'scaling', 'q_range': list(range(2, 17)),
            'snr_db': [0.0], 'n_snapshots': [1000]}),
        Part('thresholds'),
    ],
}

THRESHOLD_HEADER = ('array', 'snr_db', 'n_snapshots', 'threshold_deg')


def run_thresholds(geometry, analysis):
    """Predicted resolution thresholds; a failed call gives NaN.

    Returns:
        Rows of :data:`THRESHOLD_HEADER`.
    """
    rows = []
    for spec in ARRAYS:
        kind, _, params = spec.partition(':')
        geom = geometry.make_array(kind, *(int(p) for p in params.split(',')))
        for snr in THRESHOLD_SNR_DB:
            for n in THRESHOLD_N:
                try:
                    thr = analysis.resolution_threshold(
                        geom, n, center=np.deg2rad(THRESHOLD_CENTER_DEG),
                        power=1.0, noise_power=10.0 ** (-snr / 10.0))
                    thr_deg = float(np.rad2deg(thr))
                except analysis.NumericalFailure:
                    thr_deg = float('nan')
                rows.append((geom.name, snr, n, thr_deg))
    return rows


@dataclass
class Verdict:
    """Outcome of checking one pass's outputs.

    Attributes:
        attempted: Sweep points attempted.
        failed: Points that raised or failed their check.
        trials: Monte Carlo trials, one per snapshot batch.
        estimates: Trials times methods: the base of ``failed_trials``.
        failed_trials: The harness's failed trials, summed over rows.
        notes: One line per failed point or curve.
    """

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    estimates: int = 0
    failed_trials: int = 0
    notes: list = field(default_factory=list)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.trials += other.trials
        self.estimates += other.estimates
        self.failed_trials += other.failed_trials
        self.notes.extend(other.notes)


def _num(value):
    try:
        return float(value)
    except ValueError:
        return value


def parse_rows(header, raw_rows):
    """CSV cells to dicts, with numeric cells as floats."""
    return [dict(zip(header, (_num(v) for v in row))) for row in raw_rows]


def _finite_positive(*values):
    return all(isinstance(v, float) and math.isfinite(v) and v > 0
               for v in values)


def _mse_agrees(row):
    an, em, se = row['mse_an_rad2'], row['mse_em_rad2'], row['mse_em_se_rad2']
    if not _finite_positive(an, em, se) or not math.isfinite(row['rel_err']):
        return False
    return abs(an - em) <= SE_MULTIPLE * se + MSE_BIAS * an


def check_verify(rows, expected):
    """Closed-form vs empirical MSE, and DA against SS, per sweep point."""
    points = defaultdict(dict)
    v = Verdict(attempted=expected)
    for row in rows:
        key = (row['array'], row['snr_db'], row['n_snapshots'])
        points[key][row['method']] = row
        v.estimates += int(row['trials'])
        v.failed_trials += int(row['failed_trials'])
    v.failed = max(expected - len(points), 0)
    for key, by_method in sorted(points.items()):
        # The sweep runs 'method: both': DA and SS share each trial.
        ok = (set(by_method) == {'da', 'ss'}
              and all(_mse_agrees(r) for r in by_method.values()))
        if ok:
            da = by_method['da']['mse_em_rad2']
            ss = by_method['ss']['mse_em_rad2']
            ok = abs(da - ss) / ss <= DA_SS_GAP
        if not ok:
            v.failed += 1
            v.notes.append(f'verify point {key} failed')
        v.trials += int(next(iter(by_method.values()))['trials'])
    return v


def _binomial_slack(p, trials):
    return BINOMIAL_MULTIPLE * math.sqrt(p * (1.0 - p) / trials)


def check_resolution(rows, expected, fifty_percent_crossing):
    """Criterion-5 shape of each array's resolution curve."""
    curves = defaultdict(list)
    v = Verdict(attempted=expected)
    for row in rows:
        curves[row['array']].append(row)
        trials = int(row['trials'])
        v.trials += trials
        v.estimates += trials
        v.failed_trials += trials - round(row['p_resolve'] * trials)
    v.failed = max(expected - len(rows), 0)
    for array, curve in sorted(curves.items()):
        curve.sort(key=lambda r: r['delta_deg'])
        trials = int(curve[0]['trials'])
        probs = [r['p_resolve'] for r in curve]
        deltas = [r['delta_deg'] for r in curve]
        threshold = curve[0]['predicted_threshold_deg']
        edge = _binomial_slack(P_EDGE, trials)
        ok = (all(isinstance(p, float) and 0.0 <= p <= 1.0 for p in probs)
              and _finite_positive(threshold)
              and probs[0] <= P_EDGE + edge
              and probs[-1] >= 1.0 - P_EDGE - edge)
        if ok:
            try:
                crossing = fifty_percent_crossing(deltas, probs)
            except ValueError:
                ok = False
        if ok:
            # The crossing moves by about one binomial standard error
            # at p = 0.5 over the curve's local slope.
            i = next(j for j in range(len(probs) - 1)
                     if probs[j] < 0.5 <= probs[j + 1])
            slope = (probs[i + 1] - probs[i]) / (deltas[i + 1] - deltas[i])
            slack = _binomial_slack(0.5, trials) / slope / threshold
            ratio = crossing / threshold
            ok = (CROSSING_RATIO[0] - slack <= ratio
                  <= CROSSING_RATIO[1] + slack)
        if not ok:
            v.failed += len(curve)
            v.notes.append(f'resolution curve of {array} failed')
    return v


def check_efficiency(rows, expected):
    """kappa in (0, 1] wherever the CRB is defined."""
    v = Verdict(attempted=expected, failed=max(expected - len(rows), 0))
    for row in rows:
        kappa = row['kappa_analytic']
        if row['crb_defined'] == 1.0:
            ok = _finite_positive(kappa) and kappa <= 1.0 + KAPPA_SLACK
        else:
            ok = row['crb_defined'] == 0.0
        if not ok:
            v.failed += 1
            v.notes.append(f'efficiency point {row["array"]} k={row["k"]} '
                           f'snr={row["snr_db"]} failed')
    return v


def check_scaling(rows, expected):
    """Criterion-8 slope windows per family and source mode."""
    groups = defaultdict(list)
    v = Verdict(attempted=expected, failed=max(expected - len(rows), 0))
    for row in rows:
        groups[(row['family'], row['k_mode'])].append(row)
    for (family, mode), group in sorted(groups.items()):
        slope = group[0]['fitted_slope']
        ok = (all(_finite_positive(r['eps_an_rad2']) for r in group)
              and isinstance(slope, float) and slope < SLOPE_CEILING)
        if ok and family in ('coprime', 'nested'):
            lo, hi = SLOPE_WINDOWS[mode]
            ok = lo <= slope <= hi
        if not ok:
            v.failed += len(group)
            v.notes.append(f'scaling {family}/{mode} slope {slope} failed')
    return v


def check_thresholds(rows, expected):
    """Every predicted threshold finite and positive."""
    v = Verdict(attempted=expected, failed=max(expected - len(rows), 0))
    for row in rows:
        if not _finite_positive(row['threshold_deg']):
            v.failed += 1
            v.notes.append(f'threshold {row["array"]} snr={row["snr_db"]} '
                           f'n={row["n_snapshots"]} failed')
    return v


def expected_points(part, geometry):
    """Sweep points a part attempts, from its config alone."""
    cfg = part.config
    if cfg is None:
        return len(ARRAYS) * len(THRESHOLD_SNR_DB) * len(THRESHOLD_N)
    kind = cfg['kind']
    if kind == 'verify_mse':
        return len(cfg['arrays']) * len(cfg['snr_db']) * len(cfg['n_snapshots'])
    if kind == 'resolution':
        # The harness's default separation grid has 19 entries.
        return (len(cfg['arrays']) * len(cfg['snr_db'])
                * len(cfg['n_snapshots']) * 19)
    if kind == 'efficiency':
        return (len(cfg['arrays']) * len(cfg['k_sources'])
                * len(cfg['snr_db']) * len(cfg['n_snapshots']))
    # scaling: one point per available family member and source mode;
    # the minimum-redundancy table stops at a fixed size.
    available = 0
    for q in cfg['q_range']:
        available += 2
        try:
            geometry.mra(q)
            available += 1
        except ValueError:
            pass
    return 2 * available


def check_part(part, table_rows, expected, harness):
    """Dispatch a part's parsed output rows to its check."""
    kind = part.config['kind'] if part.config else 'thresholds'
    if kind == 'verify_mse':
        return check_verify(table_rows, expected)
    if kind == 'resolution':
        return check_resolution(table_rows, expected,
                                harness.fifty_percent_crossing)
    if kind == 'efficiency':
        return check_efficiency(table_rows, expected)
    if kind == 'scaling':
        return check_scaling(table_rows, expected)
    return check_thresholds(table_rows, expected)
