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

import collections
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import analysis, geometry, model
from .estimator import run_music, scan_size

__all__ = [
    'ConfigError', 'ExperimentConfig', 'Table',
    'load_config', 'config_digest', 'run', 'run_trials', 'emit_outputs',
    'fifty_percent_crossing',
]

_METHODS = ('da', 'ss', 'both')
_FAMILIES = ('coprime', 'nested', 'mra')
_K_MODES = ('one', 'm')

# Eleven equal-power sources, evenly placed over a 123.75 degree fan.
_DEFAULT_VERIFY_DOAS_DEG = tuple(np.linspace(-67.5, 56.25, 11))


def _is_count(value):
    """True for an integer, numpy ones included; bools are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """True for a real number, numpy ones included, finite as a float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class ConfigError(ValueError):
    """Raised when an experiment config is malformed."""


# What each value of a config field must be: ``ok`` tests a value, and
# ``what`` completes the message "<field> must be ...".
_Rule = collections.namedtuple('_Rule', 'what ok')
_REAL = _Rule('a finite number', _is_real)
_POSITIVE = _Rule('a finite number > 0', lambda v: _is_real(v) and v > 0)


def _one_of(choices):
    return _Rule(f'one of {choices}', lambda v: v in choices)


def _count(lo, hi=math.inf):
    span = f'>= {lo}' if hi == math.inf else f'in [{lo}, {hi}]'
    return _Rule(f'an integer {span}', lambda v: _is_count(v) and lo <= v <= hi)


def _check_field(name, value, shape, rule):
    """Raise :class:`ConfigError`, naming ``name``, unless ``value`` has
    the shape and meets the rule of a :data:`_FIELDS` entry."""
    subject = f'each {name} entry'
    if shape == 'value':
        value, subject = (value,), name
    elif value is None and shape == 'list or None':
        return
    elif not isinstance(value, (tuple, list)):
        raise ConfigError(f'{name} must be a list, got {value!r}')
    elif not value:
        raise ConfigError(f'{name} must not be an empty list')
    for v in value:
        try:
            ok = rule.ok(v)
        except ValueError as exc:  # an array spec that does not parse
            raise ConfigError(f'{name}: {exc}') from exc
        if not ok:
            raise ConfigError(f'{subject} must be {rule.what}, got {v!r}')


@dataclass(frozen=True)
class Table:
    """A named result table: a header tuple plus homogeneous rows."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment sweep.

    Angles are in degrees and SNRs in dB; conversion to radians happens
    inside the sweep. Every source has unit power, so an SNR sets the
    noise power alone. Each field's shape and value rule are in
    :data:`_FIELDS`. Each kind reads the fields :data:`_TABLES` lists
    for it, and a field it does not read must keep its default, so that
    no setting is silently dropped; :meth:`__post_init__` states the
    few rules that join two fields.

    Attributes:
        kind: The experiment, a key of :data:`_TABLES`.
        arrays: Array specs like ``'coprime:3,5'`` or ``'mra:10'``.
        snr_db: SNR grid, defined as 10*log10(1 / noise power).
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
        grid_step_deg: MUSIC search step, as the angle step at broadside.
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
    empirical: bool = False

    def __post_init__(self):
        for name, (shape, rule) in _FIELDS.items():
            _check_field(name, getattr(self, name), shape, rule)
        reads = _TABLES[self.kind][2]
        unread = [f.name for f in dataclasses.fields(self)
                  if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f'{self.kind} does not read {", ".join(unread)}')
        if (self.kind == 'efficiency' and self.doas_deg is not None
                and self.k_sources != ExperimentConfig.k_sources):
            raise ConfigError('efficiency reads doas_deg or k_sources, not both')
        if self.kind in ('efficiency', 'scaling') and self.method == 'both':
            raise ConfigError(f"{self.kind} runs one method: method must be "
                              f"'da' or 'ss', got 'both'")
        for name in ('snr_db', 'n_snapshots'):
            if self.kind == 'scaling' and len(getattr(self, name)) > 1:
                raise ConfigError(f'scaling reads one {name} entry, got '
                                  f'{len(getattr(self, name))}')

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from a JSON-style mapping.

        Unknown keys are rejected so typos fail loudly instead of
        silently running the default.
        """
        if not isinstance(mapping, dict):
            raise ConfigError('config root must be an object')
        unknown = sorted(set(mapping) - set(_FIELDS))
        if unknown:
            raise ConfigError(f'unknown config fields: {", ".join(unknown)}')
        if 'kind' not in mapping:
            raise ConfigError("config must set 'kind'")
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in mapping.items()})


def _read_json(path, what):
    """The JSON document in ``path``; ``what`` names it in the errors."""
    try:
        with open(path, encoding='utf-8') as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f'cannot read {what} {path}: {exc}') from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f'{what} {path} is not valid JSON: {exc}') from exc


def load_config(path):
    """Load an :class:`ExperimentConfig` from a JSON file."""
    return ExperimentConfig.from_mapping(_read_json(path, 'config'))


def config_digest(cfg):
    """SHA-256 over the canonical JSON form of the config."""
    payload = json.dumps(dataclasses.asdict(cfg), sort_keys=True,
                         separators=(',', ':'))
    return hashlib.sha256(payload.encode('utf-8')).hexdigest()


def _parse_array(spec):
    """Turn ``'kind:p1,p2,...'`` into an :class:`ArrayGeometry`."""
    kind, sep, rest = spec.partition(':')
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


# Trials in one block, whose sample covariances are drawn as one stack,
# so a block's memory does not grow with a point's trial count: at
# M = 48 each stacked M x M complex array takes 64 * 48^2 * 16 B = 2.36 MB.
_DRAW_SLICE = 64


def _trial_block(geom, scenario, n_snapshots, methods, master_seed,
                 combo_index, grid_step, trials):
    """Estimates of the trials in the range ``trials``, in radians.

    Shape ``(len(methods), len(trials), K)``: a resolved estimate's row
    holds its ascending angles, an unresolved one's is NaN.
    """
    co = geometry.difference_coarray(geom)
    chol = np.linalg.cholesky(model.true_covariance(geom, scenario))
    mv, k = co.mv, scenario.n_sources
    seeds = [np.random.SeedSequence(entropy=master_seed,
                                    spawn_key=(combo_index, trial))
             for trial in trials]
    draws = model.sample_covariance_draws(chol, n_snapshots, seeds)
    estimates = np.full((len(methods), len(trials), k), np.nan)
    for i, z in enumerate(model.virtual_observation(co, draws)):
        for row, method in zip(estimates, methods):
            est = run_music(z, mv, k, method, grid_step=grid_step)
            if est.resolved:
                row[i] = est.angles
    return estimates


# Thread-count variables of OpenBLAS, OpenMP and MKL, read once when
# numpy loads in a worker.
_BLAS_THREADS = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')


@dataclass(frozen=True)
class _Pool:
    """An executor's ``map`` and its worker count, as run_trials needs."""

    map: object
    workers: int


@contextlib.contextmanager
def _worker_pool(threads):
    """A :class:`_Pool` of ``threads`` worker processes; None for one or
    fewer.

    :func:`run` opens one for its whole sweep and passes it to every
    :func:`run_trials` call, so every sweep point has the same warm
    workers. BLAS is held to one thread per worker unless the environment
    sets a count, so that the workers do not oversubscribe the cores. A
    forked worker keeps the BLAS threads numpy started in this process,
    so when a count has to be set the workers are spawned instead, and a
    script that starts a pool must guard its entry point with
    ``if __name__ == '__main__'``. With all three counts set, the workers
    are forked.
    """
    if threads <= 1:
        yield None
        return
    unset = [name for name in _BLAS_THREADS if name not in os.environ]
    context = multiprocessing.get_context('spawn') if unset else None
    os.environ.update(dict.fromkeys(unset, '1'))
    try:
        with ProcessPoolExecutor(max_workers=threads,
                                 mp_context=context) as executor:
            yield _Pool(executor.map, threads)
    finally:
        for name in unset:
            os.environ.pop(name, None)


def run_trials(geom, scenario, n_snapshots, methods, master_seed,
               combo_index, n_trials, grid_step, pool=None):
    """Monte Carlo trials for one sweep point.

    Each trial draws its sample covariance from the complex Wishart law
    CW(N, R) / N on its own stream, and DA and SS share it, so method
    comparisons see identical noise. The trials run in blocks of at most
    :data:`_DRAW_SLICE`, each drawn as one stack whose slices equal the
    trials' own :func:`model.sample_covariance_draw`. The blocks run here
    or on ``pool`` (the :class:`_Pool` of a :func:`_worker_pool`), where a
    short point is split into one block per worker. A trial depends on its seed
    ``(master_seed, combo_index, trial)`` alone, so the result depends
    neither on the blocks nor on where they run.

    Returns:
        Float array of shape ``(len(methods), n_trials, K)``: row
        ``[m, t]`` holds the ascending DOA estimates in radians of
        method ``methods[m]`` in trial ``t``, or NaN where that estimate
        was unresolved.
    """
    block = functools.partial(
        _trial_block, geom, scenario, int(n_snapshots), tuple(methods),
        int(master_seed), int(combo_index), float(grid_step))
    n_trials = int(n_trials)
    workers = 1 if pool is None else pool.workers
    size = max(1, min(_DRAW_SLICE, -(-n_trials // workers)))
    blocks = [range(start, min(start + size, n_trials))
              for start in range(0, n_trials, size)] or [range(0)]
    run_map = map if pool is None else pool.map
    return np.concatenate(list(run_map(block, blocks)), axis=1)


def _mse_stats(errors):
    """Mean squared error over trials with its standard error.

    ``errors`` has a row of signed errors per successful trial.
    """
    if not len(errors):
        return float('nan'), float('nan')
    per_trial = np.mean(np.square(errors), axis=1)
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
    """Array for one scaling-family size, or None when not available: an
    MRA size without a tabulated design, or a size past the sensor cap."""
    try:
        if family == 'coprime':
            return geometry.coprime(q)
        if family == 'nested':
            return geometry.nested(q + 1, q)
        return geometry.mra(q)
    except ValueError:
        return None


@dataclass(frozen=True)
class _Point:
    """One sweep point.

    ``tags`` are the kind's labels: ``(delta_deg,)`` for resolution,
    the row's leading ``(family, k_mode, q, m, mv)`` for scaling.
    ``group`` numbers the points that share a resolution threshold
    (one array, SNR and N) or a scaling slope (one family and k_mode).
    """

    geom: geometry.ArrayGeometry
    scenario: model.SourceScenario
    n: int
    snr: float
    tags: tuple
    group: int


def _check_estimable(geom, mv, scenario, grid_step_deg):
    """Raise :class:`ConfigError` unless coarray MUSIC can run: K < mv,
    and a grid step that :func:`estimator.scan_size` accepts."""
    if scenario.n_sources >= mv:
        raise ConfigError(f'{geom.name} needs fewer than mv = {mv} '
                          f'sources, got {scenario.n_sources}')
    try:
        scan_size(mv, np.deg2rad(grid_step_deg))
    except ValueError as exc:
        raise ConfigError(f'{geom.name}: {exc}') from exc


# The most entries of any one array that a sweep point's trials,
# ``estimate`` or ``geom --f-csv`` builds: 2**24 are 128 MiB as float64
# and 256 MiB as complex.
_MAX_ENTRIES = 2 ** 24


def _check_entries(geom, what, shape):
    """Raise :class:`ConfigError` when the array ``what`` of ``geom``,
    of ``shape``, would hold more than :data:`_MAX_ENTRIES` entries."""
    if math.prod(shape) > _MAX_ENTRIES:
        raise ConfigError(f'{geom.name}: its {what} would be '
                          f'{" x ".join(map(str, shape))}, over '
                          f'{_MAX_ENTRIES} entries')


def _check_music_size(geom, mv, data, shape):
    """:func:`_check_entries` on the data array ``data`` of ``shape``
    that coarray MUSIC at ``geom`` starts from, then on the largest
    arrays :func:`estimator.run_music` builds at ``mv``: its real-form
    gather of Rv1 and its null-polynomial buffer."""
    for what, dims in ((data, shape),
                       ('real-form gather', (2, mv, mv)),
                       ('null-polynomial buffer', (mv, 2 * mv + 1))):
        _check_entries(geom, what, dims)


def _sweep(cfg):
    """Points of a config's sweep and its skip notices, each once.

    A point's index in the list is its combo index, which keys the
    seeds of its trials. Every scenario is built and checked here, so a
    bad point raises :class:`ConfigError` before any trial runs.
    Estimability depends on the array and K alone, so each (array, K)
    is checked once, at its first point; a config that runs trials also
    checks there the size of the arrays that a block of trials builds,
    and of the point's estimate array, methods x trials x K.
    """
    points, notices = [], []
    groups = itertools.count()
    estimable = set()
    trials = cfg.kind in ('verify_mse', 'resolution') or cfg.empirical
    n_methods = len(_methods(cfg.method))

    def add(geom, mv, doas, snr, n, group, tags=()):
        try:
            scenario = model.SourceScenario.with_snr(doas, snr)
        except ValueError as exc:
            raise ConfigError(f'{geom.name}: {exc}') from exc
        if (geom, scenario.n_sources) not in estimable:
            _check_estimable(geom, mv, scenario, cfg.grid_step_deg)
            if trials:
                m = geom.n_sensors
                _check_music_size(geom, mv, 'block of sample covariances',
                                  (_DRAW_SLICE, m, m))
                _check_entries(geom, 'estimate array',
                               (n_methods, cfg.n_trials, scenario.n_sources))
            estimable.add((geom, scenario.n_sources))
        points.append(_Point(geom, scenario, n, snr, tags, group))

    if cfg.kind == 'scaling':
        for family, mode in itertools.product(cfg.families, cfg.k_modes):
            group = next(groups)
            for q in cfg.q_range:
                geom = _family_member(family, q)
                if geom is None:
                    notices.append(f'{family} size {q} not available; '
                                   'skipped')
                    continue
                mv = geometry.difference_coarray(geom).mv
                add(geom, mv, _fan(1 if mode == 'one' else geom.n_sensors),
                    cfg.snr_db[0], cfg.n_snapshots[0], group,
                    (family, mode, q, geom.n_sensors, mv))
        if not points:
            raise ConfigError(f'scaling has no point: no array of families '
                              f'{list(cfg.families)} has a size in '
                              f'{list(cfg.q_range)}')
        # a size missing from a family is met once per k_mode
        return points, list(dict.fromkeys(notices))

    if cfg.kind == 'efficiency' and cfg.doas_deg is None:
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
            if cfg.kind != 'resolution':
                add(geom, mv, doas, snr, n, group)
                continue
            for delta_deg in deltas:
                half = np.deg2rad(delta_deg) / 2
                add(geom, mv, (center - half, center + half), snr, n, group,
                    (delta_deg,))
    return points, notices


def _closed_forms(points, bound=True):
    """Each point's closed forms, evaluated one fan at a time.

    Every kind's rows and ``analyze`` read them here. The sweeps vary
    SNR and N innermost, and the coefficients depend on neither. So
    each fan, a run of points with the same geometry and DOAs (every
    power is 1), builds its coefficients once from its first point's
    scenario and evaluates all of its points in one call. With
    ``bound=False`` the CRB is never built.

    Yields:
        ``(combo, point, mse, report, kappa, crb_trace)`` per point in
        order, ``combo`` its index in ``points``. ``report`` is None
        without the bound. Kappa and the trace are NaN where the bound
        is missing or undefined.
    """
    combos = itertools.count()
    for (geom, _), fan in itertools.groupby(
            points, key=lambda p: (p.geom, p.scenario.doas)):
        fan = list(fan)
        scenario = fan[0].scenario
        noise = [p.scenario.noise_power for p in fan]
        n = [p.n for p in fan]
        mse = analysis.mse_coefficients(geom, scenario).mse(noise, n)
        reports = [None] * len(fan)
        if bound:
            reports = analysis.crb_coefficients(geom, scenario).reports(
                noise, n)
        for p, m, report in zip(fan, mse, reports):
            kappa = crb_trace = float('nan')
            if report is not None and report.defined:
                kappa = analysis.efficiency_kappa(report, m)
                crb_trace = float(np.trace(report.crb))
            yield next(combos), p, m, report, kappa, crb_trace


def _trial_successes(cfg, combo, p, methods, pool, gate=None):
    """Run a point's trials; per method, the errors of its successes.

    A trial succeeds for a method when every |error| is strictly below
    the gate, by default :func:`_failure_gate` of the point's sources;
    an unresolved trial's NaN row fails every gate. Each method gets an
    ``(n_ok, K)`` array of signed errors in radians, one row per success
    in trial order.
    """
    errors = run_trials(p.geom, p.scenario, p.n, methods, cfg.seed, combo,
                        cfg.n_trials, np.deg2rad(cfg.grid_step_deg),
                        pool) - np.asarray(p.scenario.doas)
    if gate is None:
        gate = _failure_gate(p.scenario.doas)
    ok = np.all(np.abs(errors) < gate, axis=2)
    return [e[keep] for e, keep in zip(errors, ok)]


def _verify_rows(cfg, points, pool):
    methods = _methods(cfg.method)
    for combo, p, mse, *_ in _closed_forms(points, bound=False):
        mse_an = float(np.mean(np.diag(mse)))
        successes = _trial_successes(cfg, combo, p, methods, pool)
        for method, ok in zip(methods, successes):
            mse_em, se = _mse_stats(ok)
            rel = abs(mse_an - mse_em) / mse_em
            yield (p.geom.name, method, float(p.snr), int(p.n), cfg.n_trials,
                   mse_an, mse_em, rel, se, cfg.n_trials - len(ok))


def _resolution_rows(cfg, points, pool):
    """A trial succeeds when both peaks fall within half the separation."""
    methods = _methods(cfg.method)
    thresholds = {}
    for combo, p in enumerate(points):
        if p.group not in thresholds:
            thresholds[p.group] = float(np.rad2deg(
                analysis.resolution_threshold(
                    p.geom, p.n, center=np.deg2rad(cfg.center_deg),
                    noise_power=p.scenario.noise_power)))
        delta_deg, = p.tags
        successes = _trial_successes(cfg, combo, p, methods, pool,
                                     gate=np.deg2rad(delta_deg) / 2)
        for method, ok in zip(methods, successes):
            prob = len(ok) / cfg.n_trials
            se = math.sqrt(prob * (1.0 - prob) / cfg.n_trials)
            yield (p.geom.name, method, float(p.snr), int(p.n),
                   float(delta_deg), cfg.n_trials, prob, se,
                   thresholds[p.group])


def _efficiency_rows(cfg, points, pool):
    """Trials run only where the CRB is defined."""
    for combo, p, _, report, kappa, crb_trace in _closed_forms(points):
        kappa_em = kappa_em_se = float('nan')
        trials = failed = 0
        if cfg.empirical and report.defined:
            ok, = _trial_successes(cfg, combo, p, (cfg.method,), pool)
            trials, failed = cfg.n_trials, cfg.n_trials - len(ok)
            if len(ok):
                per_source = np.mean(np.square(ok), axis=0)
                kappa_em = crb_trace / float(np.sum(per_source))
                _, se = _mse_stats(ok)
                # relative SE of the summed MSE carries over
                kappa_em_se = kappa_em * se / float(np.mean(per_source))
        yield (p.geom.name, p.scenario.n_sources, float(p.snr), int(p.n),
               kappa, int(report.defined), kappa_em, kappa_em_se, trials,
               failed)


def _scaling_rows(cfg, points, pool):
    """The log-log slope of MSE against the sensor count is fitted per
    family and source mode."""
    forms = _closed_forms(points, bound=False)
    for _, group in itertools.groupby(forms, key=lambda form: form[1].group):
        rows = []
        for combo, p, mse, *_ in group:
            eps_em = eps_se = float('nan')
            trials = failed = 0
            if cfg.empirical:
                ok, = _trial_successes(cfg, combo, p, (cfg.method,), pool)
                trials, failed = cfg.n_trials, cfg.n_trials - len(ok)
                eps_em, eps_se = _mse_stats(ok)
            rows.append(p.tags + (float(np.mean(np.diag(mse))), eps_em,
                                  eps_se, trials, failed))
        slope = float('nan')
        if len(rows) >= 3:
            slope = float(np.polyfit(np.log10([row[3] for row in rows]),
                                     np.log10([row[5] for row in rows]),
                                     1)[0])
        yield from (row + (slope,) for row in rows)


# The config fields every kind reads.
_COMMON = ('kind', 'seed', 'n_trials', 'method', 'grid_step_deg', 'out_dir')

# Per kind: the table header, the row function over the sweep points and
# the config fields the kind reads; every other field keeps its default.
_TABLES = {
    'verify_mse': (('array', 'method', 'snr_db', 'n_snapshots', 'trials',
                    'mse_an_rad2', 'mse_em_rad2', 'rel_err',
                    'mse_em_se_rad2', 'failed_trials'), _verify_rows,
                   _COMMON + ('arrays', 'snr_db', 'n_snapshots', 'doas_deg')),
    'resolution': (('array', 'method', 'snr_db', 'n_snapshots', 'delta_deg',
                    'trials', 'p_resolve', 'p_resolve_se',
                    'predicted_threshold_deg'), _resolution_rows,
                   _COMMON + ('arrays', 'snr_db', 'n_snapshots', 'center_deg',
                              'delta_deg')),
    'efficiency': (('array', 'k', 'snr_db', 'n_snapshots', 'kappa_analytic',
                    'crb_defined', 'kappa_empirical', 'kappa_empirical_se',
                    'trials', 'failed_trials'), _efficiency_rows,
                   _COMMON + ('arrays', 'snr_db', 'n_snapshots', 'k_sources',
                              'doas_deg', 'empirical')),
    'scaling': (('family', 'k_mode', 'q', 'm', 'mv', 'eps_an_rad2',
                 'eps_em_rad2', 'eps_em_se_rad2', 'trials', 'failed_trials',
                 'fitted_slope'), _scaling_rows,
                _COMMON + ('families', 'k_modes', 'q_range', 'snr_db',
                           'n_snapshots', 'empirical')),
}

# Per config field: its shape, ``'value'``, ``'list'`` (never empty) or
# ``'list or None'``, and the rule each of its values must meet. N stops
# at 2**62, as the Wishart draw's shapes N - i are int64.
_FIELDS = {
    'kind': ('value', _one_of(tuple(_TABLES))),
    'arrays': ('list', _Rule("an array spec like 'mra:10'", lambda v:
                             isinstance(v, str) and bool(_parse_array(v)))),
    'snr_db': ('list', _REAL),
    'n_snapshots': ('list', _count(1, 2 ** 62)),
    # 2**24 trials at one point are hours of work, over 8000 times the
    # acceptance gates' 2000, and run_trials lists their 2**18 blocks
    # before the first trial
    'n_trials': ('value', _count(1, 2 ** 24)),
    'seed': ('value', _count(0)),
    'method': ('value', _one_of(_METHODS)),
    'out_dir': ('value', _Rule('a str', lambda v: isinstance(v, str))),
    'doas_deg': ('list or None', _REAL),
    'center_deg': ('value', _Rule('a finite number in (-90, 90)',
                                  lambda v: _is_real(v) and -90 < v < 90)),
    'delta_deg': ('list or None', _POSITIVE),
    'k_sources': ('list', _count(1)),
    'q_range': ('list', _count(2)),
    'families': ('list', _one_of(_FAMILIES)),
    'k_modes': ('list', _one_of(_K_MODES)),
    'grid_step_deg': ('value', _POSITIVE),
    'empirical': ('value', _Rule('true or false',
                                 lambda v: isinstance(v, bool))),
}


def run(cfg, threads=1):
    """Run a config's sweep and return its tables by name.

    Every sweep point is built and checked before the first trial runs.
    """
    points, notices = _sweep(cfg)
    header, rows, _ = _TABLES[cfg.kind]
    with _worker_pool(threads) as pool:
        tables = {cfg.kind: Table(header, tuple(rows(cfg, points, pool)))}
    if notices:
        tables['notices'] = Table(('message',), tuple((s,) for s in notices))
    return tables


def _analyze_table(cfg):
    """Per-source closed forms over the points of the config's sweep."""
    rows = []
    for _, p, mse, report, kappa, crb_trace in _closed_forms(_sweep(cfg)[0]):
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
    # np.float64 is a float whose repr names its type, so only an exact
    # float skips the .item() below
    if type(value) is float:
        return repr(value)
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


# Per plottable table: the columns whose values tell its series apart,
# the x and y columns, and the axes drawn on a log scale.
_PLOTS = {
    'verify_mse': (('array', 'method', 'n_snapshots'), 'snr_db', 'rel_err',
                   'y'),
    'resolution': (('array', 'method', 'snr_db', 'n_snapshots'), 'delta_deg',
                   'p_resolve', ''),
    'efficiency': (('array', 'k', 'n_snapshots'), 'snr_db', 'kappa_analytic',
                   ''),
    'scaling': (('family', 'k_mode'), 'm', 'eps_an_rad2', 'xy'),
}


def _plot_script(name, table, csv_name):
    """Gnuplot script with one line per distinct series key of a table.

    A resolution plot also marks the predicted threshold of each
    (array, SNR, N) with a dashed vertical arrow.
    """
    keys, xcol, ycol, log = _PLOTS[name]
    col = {c: i for i, c in enumerate(table.header)}
    lines = ['# requires gnuplot >= 5.0 (CSV-quoted fields)',
             "set datafile separator ','"]
    if log:
        lines.append(f'set logscale {log}')
    lines += [f"set xlabel '{xcol}'", f"set ylabel '{ycol}'",
              'set key outside right']
    if name == 'resolution':
        group = [col[k] for k in ('array', 'snr_db', 'n_snapshots')]
        thr = col['predicted_threshold_deg']
        marks = {tuple(row[i] for i in group): _fmt_cell(row[thr])
                 for row in table.rows}
        lines += [f'set arrow from {t},0 to {t},1 nohead dashtype 2'
                  for t in marks.values()]
    parts = []
    for tag in dict.fromkeys(tuple(row[col[k]] for k in keys)
                             for row in table.rows):
        cond = ' && '.join(
            f"strcol({col[k] + 1}) eq '{v}'" if isinstance(v, str)
            else f'column({col[k] + 1}) == {_fmt_cell(v)}'
            for k, v in zip(keys, tag))
        title = ' '.join(_fmt_cell(v) for v in tag)
        parts.append(f"    '{csv_name}' using ({cond} ? column("
                     f'{col[xcol] + 1}) : 1/0):(column({col[ycol] + 1})) '
                     f"with linespoints title '{title}'")
    lines += ['plot \\', ', \\\n'.join(parts)]
    return '\n'.join(lines) + '\n'


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
        if name in _PLOTS:
            written.append(_write_text(os.path.join(out_dir, f'{name}.gp'),
                                       _plot_script(name, table, csv_name)))
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
