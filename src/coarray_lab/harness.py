"""Config-driven Monte Carlo experiments over the closed-form analytics.

Each experiment kind reproduces one family of benchmark sweeps at desk
scale: ``verify_mse`` compares the closed-form MSE against simulation,
``resolution`` measures the probability of resolving a close pair,
``efficiency`` tabulates the CRB-to-MSE ratio, and ``scaling`` fits the
MSE decay rate against the number of sensors. Results are emitted as
CSV tables, gnuplot scripts, and a manifest keyed by the config hash.

Determinism contract: a run is a pure function of (config, seed). Trial
streams are derived from ``SeedSequence(seed, spawn_key=(combo, trial))``
so outputs do not depend on worker count or chunking.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import analysis, geometry, model
from .estimator import run_music

__all__ = [
    'ConfigError', 'ExperimentConfig', 'TrialRecord', 'Table',
    'load_config', 'config_digest', 'run', 'run_trials', 'emit_outputs',
    'fifty_percent_crossing',
]

_KINDS = ('verify_mse', 'resolution', 'efficiency', 'scaling')
_METHODS = ('da', 'ss', 'both')
_FAMILIES = ('coprime', 'nested', 'mra')
_K_MODES = ('one', 'm')

# Eleven equal-power sources, evenly placed over a 123.75 degree fan.
_DEFAULT_VERIFY_DOAS_DEG = tuple(np.linspace(-67.5, 56.25, 11))


def _is_count(value):
    """True for an integer, numpy ones included; bools are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """True for a finite real number, numpy ones included; not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


class ConfigError(ValueError):
    """Raised when an experiment config is malformed."""


@dataclass(frozen=True)
class Table:
    """A named result table: a header tuple plus homogeneous rows."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one Monte Carlo trial for one method.

    Attributes:
        trial_index: Trial number within its sweep combination.
        seed_key: ``(master_seed, combo_index, trial_index)``; the trial
            is reproducible from this key alone.
        estimates: Estimated DOAs in radians, ascending.
        errors: Signed per-source errors in radians; empty when the
            estimator returned fewer peaks than sources.
        resolved: Whether the estimator found one peak per source.
        method: ``'da'`` or ``'ss'``.
    """

    trial_index: int
    seed_key: tuple[int, int, int]
    estimates: tuple[float, ...]
    errors: tuple[float, ...]
    resolved: bool
    method: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment sweep.

    Angles are in degrees and SNRs in dB; conversion to radians happens
    inside the sweep. Every kind reads ``seed``, ``n_trials``,
    ``method``, ``grid_step_deg``, ``power`` and ``out_dir``; beyond
    those each kind reads only its own fields and ignores the rest:

    - ``verify_mse``: ``arrays``, ``snr_db``, ``n_snapshots``,
      ``doas_deg``.
    - ``resolution``: ``arrays``, ``snr_db``, ``n_snapshots``,
      ``center_deg``, ``delta_deg``.
    - ``efficiency``: ``arrays``, ``snr_db``, ``n_snapshots``,
      ``k_sources`` (or ``doas_deg``), ``empirical``.
    - ``scaling``: ``families``, ``k_modes``, ``q_range``, the first
      ``snr_db`` and ``n_snapshots`` entries, ``empirical``.

    Attributes:
        kind: One of ``verify_mse``, ``resolution``, ``efficiency``,
            ``scaling``.
        arrays: Array specs like ``'coprime:3,5'`` or ``'mra:10'``.
        snr_db: SNR grid, defined as 10*log10(min_k p_k / noise power).
        n_snapshots: Snapshot-count grid.
        n_trials: Monte Carlo trials per sweep point.
        seed: Master seed; all trial streams derive from it.
        method: ``'da'``, ``'ss'``, or ``'both'``.
        out_dir: Output directory for :func:`emit_outputs`.
        doas_deg: Source placement for ``verify_mse`` (None: the
            default eleven-source fan) and ``efficiency`` (None: one fan
            per ``k_sources`` entry).
        center_deg: Pair center for ``resolution``.
        delta_deg: Separation grid for ``resolution``; None selects
            0.3..3.0 degrees in 19 steps.
        k_sources: Source counts for ``efficiency``; k sources sit at
            broadside for k = 1 and evenly over -60..60 degrees else.
        q_range: Family size parameters for ``scaling``.
        families: Array families for ``scaling``.
        k_modes: ``'one'`` (single source at broadside) and/or ``'m'``
            (as many sources as sensors) for ``scaling``.
        grid_step_deg: MUSIC search grid step.
        power: Per-source power.
        empirical: Whether ``efficiency`` and ``scaling`` also run
            Monte Carlo trials next to the closed forms.
    """

    kind: str
    arrays: tuple[str, ...] = ('coprime:3,5', 'nested:4,6', 'mra:10')
    snr_db: tuple[float, ...] = (0.0,)
    n_snapshots: tuple[int, ...] = (500,)
    n_trials: int = 500
    seed: int = 20260818
    method: str = 'ss'
    out_dir: str = 'results'
    doas_deg: tuple[float, ...] | None = None
    center_deg: float = 30.0
    delta_deg: tuple[float, ...] | None = None
    k_sources: tuple[int, ...] = (1, 6, 12)
    q_range: tuple[int, ...] = tuple(range(2, 13))
    families: tuple[str, ...] = _FAMILIES
    k_modes: tuple[str, ...] = _K_MODES
    grid_step_deg: float = 0.1
    power: float = 1.0
    empirical: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f'kind must be one of {_KINDS}, got {self.kind!r}')
        if self.method not in _METHODS:
            raise ConfigError(f'method must be one of {_METHODS}, got {self.method!r}')
        if not self.arrays:
            raise ConfigError('at least one array spec is required')
        for spec in self.arrays:
            _parse_array(spec)
        if not self.snr_db or not all(_is_real(s) for s in self.snr_db):
            raise ConfigError('snr_db must be a non-empty list of finite values')
        for name in ('n_snapshots', 'k_sources', 'q_range'):
            if not all(_is_count(v) for v in getattr(self, name)):
                raise ConfigError(f'{name} entries must be integers, got '
                                  f'{getattr(self, name)!r}')
        if not self.n_snapshots or any(n < 1 for n in self.n_snapshots):
            raise ConfigError('n_snapshots entries must be >= 1')
        if not _is_count(self.n_trials) or self.n_trials < 1:
            raise ConfigError(f'n_trials must be an integer >= 1, got '
                              f'{self.n_trials!r}')
        if not _is_count(self.seed) or self.seed < 0:
            raise ConfigError(f'seed must be a non-negative integer, got '
                              f'{self.seed!r}')
        if not _is_real(self.grid_step_deg) or not self.grid_step_deg > 0:
            raise ConfigError('grid_step_deg must be finite and positive')
        if not _is_real(self.power) or not self.power > 0:
            raise ConfigError('power must be finite and positive')
        if not isinstance(self.empirical, bool):
            raise ConfigError(f'empirical must be true or false, got '
                              f'{self.empirical!r}')
        for name in ('doas_deg', 'delta_deg'):
            values = getattr(self, name)
            if values is not None and not (
                    isinstance(values, (tuple, list))
                    and all(_is_real(v) for v in values)):
                raise ConfigError(f'{name} must be a list of finite numbers, '
                                  f'got {values!r}')
        if not -90.0 < self.center_deg < 90.0:
            raise ConfigError('center_deg must lie inside (-90, 90)')
        for name in ('k_sources', 'q_range', 'families', 'k_modes',
                     'delta_deg'):
            if getattr(self, name) is not None and not getattr(self, name):
                raise ConfigError(f'{name} must not be an empty list')
        if self.delta_deg is not None and any(d <= 0 for d in self.delta_deg):
            raise ConfigError('delta_deg entries must be positive')
        if any(k < 1 for k in self.k_sources):
            raise ConfigError('k_sources entries must be >= 1')
        if any(q < 2 for q in self.q_range):
            raise ConfigError('q_range entries must be >= 2')
        for fam in self.families:
            if fam not in _FAMILIES:
                raise ConfigError(f'families entries must be among {_FAMILIES}')
        for mode in self.k_modes:
            if mode not in _K_MODES:
                raise ConfigError("k_modes entries must be 'one' or 'm'")

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from a JSON-style mapping.

        Unknown keys are rejected so typos fail loudly instead of
        silently running the default.
        """
        if not isinstance(mapping, dict):
            raise ConfigError('config root must be an object')
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - set(fields))
        if unknown:
            raise ConfigError(f'unknown config fields: {", ".join(unknown)}')
        if 'kind' not in mapping:
            raise ConfigError("config must set 'kind'")
        kwargs = {}
        for key, value in mapping.items():
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc


def load_config(path):
    """Load an :class:`ExperimentConfig` from a JSON file."""
    try:
        with open(path, encoding='utf-8') as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f'cannot read config {path}: {exc}') from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f'config {path} is not valid JSON: {exc}') from exc
    return ExperimentConfig.from_mapping(data)


def config_digest(cfg):
    """SHA-256 over the canonical JSON form of the config."""
    payload = json.dumps(dataclasses.asdict(cfg), sort_keys=True,
                         separators=(',', ':'))
    return hashlib.sha256(payload.encode('utf-8')).hexdigest()


def _parse_array(spec):
    """Turn ``'kind:p1,p2,...'`` into an :class:`ArrayGeometry`."""
    kind, sep, rest = str(spec).partition(':')
    try:
        params = tuple(int(tok) for tok in rest.split(',') if tok.strip())
        if kind.strip().lower() == 'custom':
            return geometry.make_array('custom', params)
        return geometry.make_array(kind.strip(), *params)
    except ValueError as exc:
        raise ConfigError(f'bad array spec {spec!r}: {exc}') from exc


def _methods(method):
    return ('da', 'ss') if method == 'both' else (method,)


def _failure_gate(doas):
    """Largest error still attributable to its own source.

    Beyond half the minimum true separation the estimate-to-source
    pairing is ambiguous, so such trials count as failures. A lone
    source uses a fixed quarter-circle gate.
    """
    doas = np.sort(np.asarray(doas, dtype=float))
    if doas.size < 2:
        return np.pi / 4
    return 0.5 * float(np.min(np.diff(doas)))


def _chunk_worker(task):
    """Run a contiguous block of trials; returns plain tuples."""
    (geom, scenario, n_snapshots, methods, master_seed, combo_index,
     start, count, grid_step) = task
    co = geometry.difference_coarray(geom)
    f = geometry.selection_matrix(co)
    out = []
    for trial in range(start, start + count):
        seed = np.random.SeedSequence(entropy=master_seed,
                                      spawn_key=(combo_index, trial))
        snapshots = model.simulate_snapshots(geom, scenario, n_snapshots, seed)
        z = model.virtual_observation(f, model.sample_covariance(snapshots).r)
        per_method = []
        for method in methods:
            est = run_music(z, co.mv, scenario.n_sources, method=method,
                            grid_step=grid_step, d0=geom.d0,
                            wavelength=geom.wavelength)
            per_method.append((method, bool(est.resolved),
                               tuple(float(a) for a in est.angles)))
        out.append((trial, per_method))
    return out


def run_trials(geom, scenario, n_snapshots, methods, master_seed,
               combo_index, n_trials, grid_step, threads=1):
    """Monte Carlo trials for one sweep point.

    DA and SS share each trial's snapshots so method comparisons see
    identical noise. Records are ordered by (trial, method) regardless
    of ``threads``.

    Returns:
        List of :class:`TrialRecord`.
    """
    methods = tuple(methods)
    n_trials = int(n_trials)
    if threads > 1:
        chunk = max(1, -(-n_trials // (threads * 8)))
    else:
        chunk = n_trials
    tasks = [(geom, scenario, int(n_snapshots), methods, int(master_seed),
              int(combo_index), start, min(chunk, n_trials - start),
              float(grid_step))
             for start in range(0, n_trials, chunk)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_chunk_worker, tasks))
    else:
        chunks = [_chunk_worker(t) for t in tasks]

    truth = np.asarray(scenario.doas, dtype=float)
    records = []
    for block in chunks:
        for trial, per_method in block:
            key = (int(master_seed), int(combo_index), trial)
            for method, resolved, angles in per_method:
                errors = ()
                if resolved and len(angles) == truth.size:
                    errors = tuple(float(a - t) for a, t in zip(angles, truth))
                records.append(TrialRecord(trial, key, angles, errors,
                                           resolved, method))
    return records


def _successes(records, method, gate):
    """Trials of one method that resolved inside the pairing gate."""
    ok = []
    for rec in records:
        if rec.method != method or not rec.resolved or not rec.errors:
            continue
        if max(abs(e) for e in rec.errors) < gate:
            ok.append(rec)
    return ok


def _mse_stats(ok_records):
    """Mean squared error over trials with its standard error."""
    if not ok_records:
        return float('nan'), float('nan')
    per_trial = np.array([np.mean(np.square(rec.errors))
                          for rec in ok_records])
    mse = float(np.mean(per_trial))
    if per_trial.size < 2:
        return mse, float('nan')
    se = float(np.std(per_trial, ddof=1) / np.sqrt(per_trial.size))
    return mse, se


def _fan(k):
    """Default source fan: one source at broadside, else -60..60 degrees."""
    if k == 1:
        return (0.0,)
    return tuple(np.deg2rad(np.linspace(-60.0, 60.0, k)))


def _family_member(family, q):
    """Array for one scaling-family size, or None when not available."""
    if family == 'coprime':
        return geometry.coprime(q)
    if family == 'nested':
        return geometry.nested(q + 1, q)
    try:
        return geometry.mra(q)
    except ValueError:
        return None


@dataclass(frozen=True)
class _Point:
    """One sweep point; ``mv`` is the virtual-ULA size of ``geom``.

    ``tags`` are the kind's labels: ``(delta_deg,)`` for resolution,
    ``(family, k_mode, q)`` for scaling. ``group`` numbers the points
    that share a resolution threshold (one array, SNR and N) or a
    scaling slope (one family and k_mode).
    """

    geom: geometry.ArrayGeometry
    mv: int
    scenario: model.SourceScenario
    n: int
    snr: float
    tags: tuple
    group: int


def _sweep(cfg, kind):
    """Points of a config's sweep of ``kind`` and the skip notices.

    A point's index in the list is its combo index, which keys the
    seeds of its trials. Every scenario is built and checked here, so a
    bad point raises :class:`ConfigError` before any trial runs.
    """
    points, notices = [], []
    groups = itertools.count()

    def add(geom, mv, doas, snr, n, group, tags=()):
        try:
            scenario = model.SourceScenario.with_snr(doas, snr, cfg.power)
        except ValueError as exc:
            raise ConfigError(f'{geom.name}: {exc}') from exc
        if scenario.n_sources >= mv:
            raise ConfigError(f'{geom.name} needs fewer than mv = {mv} '
                              f'sources, got {scenario.n_sources}')
        points.append(_Point(geom, mv, scenario, n, snr, tags, group))

    if kind == 'scaling':
        for family, mode in itertools.product(cfg.families, cfg.k_modes):
            group = next(groups)
            for q in cfg.q_range:
                geom = _family_member(family, q)
                if geom is None:
                    notices.append(f'{family} size {q} not available; '
                                   'skipped')
                    continue
                add(geom, geometry.difference_coarray(geom).mv,
                    _fan(1 if mode == 'one' else geom.n_sensors),
                    cfg.snr_db[0], cfg.n_snapshots[0], group,
                    (family, mode, q))
        return points, notices

    if kind == 'efficiency' and cfg.doas_deg is None:
        fans = [_fan(k) for k in cfg.k_sources]
    else:
        given = (_DEFAULT_VERIFY_DOAS_DEG if cfg.doas_deg is None
                 else cfg.doas_deg)
        fans = [tuple(np.deg2rad(d) for d in given)]
    center = np.deg2rad(cfg.center_deg)
    deltas = (cfg.delta_deg if cfg.delta_deg is not None
              else tuple(np.linspace(0.3, 3.0, 19)))
    for spec in cfg.arrays:
        geom = _parse_array(spec)
        mv = geometry.difference_coarray(geom).mv
        for doas, snr, n in itertools.product(fans, cfg.snr_db,
                                              cfg.n_snapshots):
            group = next(groups)
            if kind != 'resolution':
                add(geom, mv, doas, snr, n, group)
                continue
            for delta_deg in deltas:
                half = np.deg2rad(delta_deg) / 2
                add(geom, mv, (center - half, center + half), snr, n, group,
                    (delta_deg,))
    return points, notices


def _closed_form(p):
    """MSE matrix, CRB report, kappa and CRB trace (NaN if undefined)."""
    mse = analysis.analytical_mse(p.geom, p.scenario, p.n)
    report = analysis.crb(p.geom, p.scenario, p.n)
    if not report.defined:
        return mse, report, float('nan'), float('nan')
    return (mse, report, analysis.efficiency_kappa(report, mse),
            float(np.trace(report.crb)))


def _trial_successes(cfg, combo, p, methods, threads, gate=None):
    """Run a point's trials; per method, those resolved inside the gate.

    The gate defaults to :func:`_failure_gate` of the point's sources.
    """
    records = run_trials(p.geom, p.scenario, p.n, methods, cfg.seed, combo,
                         cfg.n_trials, np.deg2rad(cfg.grid_step_deg), threads)
    if gate is None:
        gate = _failure_gate(p.scenario.doas)
    return [_successes(records, m, gate) for m in methods]


def _verify_rows(cfg, points, threads):
    methods = _methods(cfg.method)
    for combo, p in enumerate(points):
        mse_an = float(np.mean(np.diag(
            analysis.analytical_mse(p.geom, p.scenario, p.n))))
        successes = _trial_successes(cfg, combo, p, methods, threads)
        for method, ok in zip(methods, successes):
            mse_em, se = _mse_stats(ok)
            rel = abs(mse_an - mse_em) / mse_em if ok else float('nan')
            yield (p.geom.name, method, float(p.snr), int(p.n), cfg.n_trials,
                   mse_an, mse_em, rel, se, cfg.n_trials - len(ok))


def _resolution_rows(cfg, points, threads):
    """A trial succeeds when both peaks fall within half the separation."""
    methods = _methods(cfg.method)
    thresholds = {}
    for combo, p in enumerate(points):
        if p.group not in thresholds:
            thresholds[p.group] = float(np.rad2deg(
                analysis.resolution_threshold(
                    p.geom, p.n, center=np.deg2rad(cfg.center_deg),
                    power=cfg.power, noise_power=p.scenario.noise_power)))
        delta_deg, = p.tags
        successes = _trial_successes(cfg, combo, p, methods, threads,
                                     gate=np.deg2rad(delta_deg) / 2)
        for method, ok in zip(methods, successes):
            prob = len(ok) / cfg.n_trials
            se = math.sqrt(prob * (1.0 - prob) / cfg.n_trials)
            yield (p.geom.name, method, float(p.snr), int(p.n),
                   float(delta_deg), cfg.n_trials, prob, se,
                   thresholds[p.group])


def _efficiency_rows(cfg, points, threads):
    """Trials run only where the CRB is defined, for the last method."""
    method = _methods(cfg.method)[-1]
    for combo, p in enumerate(points):
        _, report, kappa, crb_trace = _closed_form(p)
        kappa_em = kappa_em_se = float('nan')
        trials = failed = 0
        if cfg.empirical and report.defined:
            ok, = _trial_successes(cfg, combo, p, (method,), threads)
            trials, failed = cfg.n_trials, cfg.n_trials - len(ok)
            if ok:
                per_source = np.mean(np.square([rec.errors for rec in ok]),
                                     axis=0)
                kappa_em = crb_trace / float(np.sum(per_source))
                _, se = _mse_stats(ok)
                # relative SE of the summed MSE carries over
                kappa_em_se = kappa_em * se / float(np.mean(per_source))
        yield (p.geom.name, p.scenario.n_sources, float(p.snr), int(p.n),
               kappa, int(report.defined), kappa_em, kappa_em_se, trials,
               failed)


def _scaling_rows(cfg, points, threads):
    """Trials run for the last method only.

    The log-log slope of MSE against the sensor count is fitted per
    family and source mode.
    """
    method = _methods(cfg.method)[-1]
    for _, group in itertools.groupby(enumerate(points),
                                      key=lambda item: item[1].group):
        rows = []
        for combo, p in group:
            eps = float(np.mean(np.diag(
                analysis.analytical_mse(p.geom, p.scenario, p.n))))
            eps_em = eps_se = float('nan')
            trials = failed = 0
            if cfg.empirical:
                ok, = _trial_successes(cfg, combo, p, (method,), threads)
                trials, failed = cfg.n_trials, cfg.n_trials - len(ok)
                eps_em, eps_se = _mse_stats(ok)
            rows.append(p.tags + (p.geom.n_sensors, p.mv, eps, eps_em, eps_se,
                                  trials, failed))
        slope = float('nan')
        if len(rows) >= 3:
            slope = float(np.polyfit(np.log10([row[3] for row in rows]),
                                     np.log10([row[5] for row in rows]),
                                     1)[0])
        yield from (row + (slope,) for row in rows)


# Per kind: the table header and the row function over the sweep points.
_TABLES = {
    'verify_mse': (('array', 'method', 'snr_db', 'n_snapshots', 'trials',
                    'mse_an_rad2', 'mse_em_rad2', 'rel_err',
                    'mse_em_se_rad2', 'failed_trials'), _verify_rows),
    'resolution': (('array', 'method', 'snr_db', 'n_snapshots', 'delta_deg',
                    'trials', 'p_resolve', 'p_resolve_se',
                    'predicted_threshold_deg'), _resolution_rows),
    'efficiency': (('array', 'k', 'snr_db', 'n_snapshots', 'kappa_analytic',
                    'crb_defined', 'kappa_empirical', 'kappa_empirical_se',
                    'trials', 'failed_trials'), _efficiency_rows),
    'scaling': (('family', 'k_mode', 'q', 'm', 'mv', 'eps_an_rad2',
                 'eps_em_rad2', 'eps_em_se_rad2', 'trials', 'failed_trials',
                 'fitted_slope'), _scaling_rows),
}


def run(cfg, threads=1):
    """Run a config's sweep and return its tables by name.

    Every sweep point is built and checked before the first trial runs.
    """
    points, notices = _sweep(cfg, cfg.kind)
    header, rows = _TABLES[cfg.kind]
    tables = {cfg.kind: Table(header, tuple(rows(cfg, points, threads)))}
    if notices:
        tables['notices'] = Table(('message',), tuple((s,) for s in notices))
    return tables


def _analyze_table(cfg):
    """Per-source closed forms over the points of the config's sweep."""
    rows = []
    for p in _sweep(cfg, cfg.kind)[0]:
        mse, report, kappa, crb_trace = _closed_form(p)
        for i, theta in enumerate(p.scenario.doas):
            eps = float(mse[i, i])
            rows.append((p.geom.name, p.scenario.n_sources, float(p.snr),
                         int(p.n), i, float(np.rad2deg(theta)), eps,
                         float(eps * np.rad2deg(1.0) ** 2), crb_trace, kappa,
                         int(report.defined)))
    header = ('array', 'k', 'snr_db', 'n_snapshots', 'source', 'theta_deg',
              'eps_rad2', 'eps_deg2', 'crb_trace_rad2', 'kappa',
              'crb_defined')
    return Table(header, tuple(rows))


def fifty_percent_crossing(x, p):
    """Abscissa where a monotone-trend probability curve crosses 0.5.

    Linear interpolation between the first bracketing pair; raises
    ``ValueError`` when the curve never crosses upward inside the grid.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.size != p.size or x.size < 2:
        raise ValueError('need matching grids of length >= 2')
    if np.any(np.diff(x) <= 0):
        raise ValueError('x grid must be strictly increasing')
    if p[0] >= 0.5:
        raise ValueError('curve already above 0.5 at the smallest x')
    for i in range(x.size - 1):
        if p[i] < 0.5 <= p[i + 1]:
            frac = (0.5 - p[i]) / (p[i + 1] - p[i])
            return float(x[i] + frac * (x[i + 1] - x[i]))
    raise ValueError('no upward 0.5 crossing inside the grid')


def _fmt_cell(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path, text):
    try:
        with open(path, 'w', encoding='utf-8', newline='') as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f'failed writing {path}: {exc}') from exc
    return path


def _csv_text(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator='\n')
    writer.writerow(table.header)
    for row in table.rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _series_filter(header, row, keys):
    """Gnuplot boolean expression selecting one series' rows."""
    clauses = []
    for key in keys:
        col = header.index(key) + 1
        val = row[header.index(key)]
        if isinstance(val, str):
            clauses.append(f"strcol({col}) eq '{val}'")
        else:
            clauses.append(f'column({col}) == {_fmt_cell(val)}')
    return ' && '.join(clauses)


def _gp_series(table, csv_name, keys, xcol, ycol, logy=False, logx=False):
    """One gnuplot 'plot' command with a line per distinct key tuple."""
    header = table.header
    seen = []
    for row in table.rows:
        tag = tuple(row[header.index(k)] for k in keys)
        if tag not in seen:
            seen.append(tag)
    xi = header.index(xcol) + 1
    yi = header.index(ycol) + 1
    parts = []
    for tag in seen:
        row = next(r for r in table.rows
                   if tuple(r[header.index(k)] for k in keys) == tag)
        cond = _series_filter(header, row, keys)
        title = ' '.join(_fmt_cell(v) for v in tag)
        parts.append(f"'{csv_name}' using "
                     f'({cond} ? column({xi}) : 1/0):(column({yi})) '
                     f"with linespoints title '{title}'")
    lines = ["# requires gnuplot >= 5.0 (CSV-quoted fields)",
             "set datafile separator ','"]
    if logx and logy:
        lines.append('set logscale xy')
    elif logy:
        lines.append('set logscale y')
    elif logx:
        lines.append('set logscale x')
    lines.append(f"set xlabel '{xcol}'")
    lines.append(f"set ylabel '{ycol}'")
    lines.append('set key outside right')
    lines.append('plot \\')
    lines.append(', \\\n'.join('    ' + p for p in parts))
    return '\n'.join(lines) + '\n'


def _plot_script(name, table, csv_name):
    if name == 'verify_mse':
        return _gp_series(table, csv_name, ('array', 'method', 'n_snapshots'),
                          'snr_db', 'rel_err', logy=True)
    if name == 'resolution':
        script = _gp_series(table, csv_name, ('array', 'method'),
                            'delta_deg', 'p_resolve')
        thr_col = table.header.index('predicted_threshold_deg')
        arr_col = table.header.index('array')
        arrows = []
        seen = set()
        for row in table.rows:
            if row[arr_col] in seen:
                continue
            seen.add(row[arr_col])
            thr = _fmt_cell(row[thr_col])
            arrows.append(f'set arrow from {thr},0 to {thr},1 nohead dashtype 2')
        lines = script.split('\n')
        cut = lines.index('plot \\')
        return '\n'.join(lines[:cut] + arrows + lines[cut:])
    if name == 'efficiency':
        return _gp_series(table, csv_name, ('array', 'k'),
                          'snr_db', 'kappa_analytic')
    if name == 'scaling':
        return _gp_series(table, csv_name, ('family', 'k_mode'),
                          'm', 'eps_an_rad2', logx=True, logy=True)
    return None


def emit_outputs(tables, out_dir, cfg):
    """Write tables, plot scripts, and the run manifest.

    One CSV per table, one gnuplot script per plottable table, and
    ``manifest.json`` recording the tool version, seed, config hash,
    and table row counts. Reruns with identical (config, seed) produce
    byte-identical files.

    Returns:
        List of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    manifest_tables = {}
    for name in sorted(tables):
        table = tables[name]
        csv_name = f'{name}.csv'
        path = os.path.join(out_dir, csv_name)
        written.append(_write_text(path, _csv_text(table)))
        manifest_tables[name] = {'path': csv_name, 'rows': len(table.rows)}
        script = _plot_script(name, table, csv_name)
        if script is not None:
            written.append(_write_text(os.path.join(out_dir, f'{name}.gp'),
                                       script))
    manifest = {
        'tool': 'coarray-lab',
        'version': __version__,
        'kind': cfg.kind,
        'seed': cfg.seed,
        'config_sha256': config_digest(cfg),
        'config': dataclasses.asdict(cfg),
        'tables': manifest_tables,
    }
    text = json.dumps(manifest, sort_keys=True, indent=2) + '\n'
    written.append(_write_text(os.path.join(out_dir, 'manifest.json'), text))
    return written
