"""Command-line front end.

Subcommands: ``geom`` inspects an array and its coarray, ``estimate``
runs MUSIC on one simulated batch, ``analyze`` tabulates the closed-form
error measures, and ``run`` executes a config-driven experiment sweep.

Exit codes: 0 on success, 2 on config or usage errors (an output path
that cannot be written among them), 3 on numerical failures such as an
undefined CRB at every requested point.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from . import analysis, geometry, model
from .estimator import run_music
from .harness import (ConfigError, Table, emit_outputs, load_config, run,
                      _FIELDS, _POSITIVE, _REAL, _analyze_table,
                      _check_entries, _check_estimable, _check_field,
                      _check_music_size, _count, _csv_text, _parse_array,
                      _read_json, _write_text)


def _load_scenario(path):
    """Read a scenario JSON file.

    Expected keys: ``doas_deg`` (required), then either ``noise_power``
    or ``snr_db``, optionally ``powers`` (list) or ``power`` (scalar).
    """
    data = _read_json(path, 'scenario')
    if not isinstance(data, dict):
        raise ConfigError('scenario root must be an object')
    known = {'doas_deg', 'powers', 'power', 'noise_power', 'snr_db'}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f'unknown scenario fields: {", ".join(unknown)}')
    if 'doas_deg' not in data:
        raise ConfigError("scenario must set 'doas_deg'")
    try:
        for name, value in data.items():
            shape = 'list' if name in ('doas_deg', 'powers') else 'value'
            _check_field(name, value, shape, _REAL)
        doas = tuple(np.deg2rad(float(d)) for d in data['doas_deg'])
        if 'noise_power' in data:
            k = len(doas)
            powers = data.get('powers', [data.get('power', 1.0)] * k)
            return model.SourceScenario(doas, tuple(powers),
                                        float(data['noise_power']))
        if 'snr_db' in data:
            power = data.get('powers', data.get('power', 1.0))
            return model.SourceScenario.with_snr(doas, float(data['snr_db']),
                                                 power)
    except ValueError as exc:  # a ConfigError among them
        raise ConfigError(f'bad scenario: {exc}') from exc
    raise ConfigError("scenario must set 'noise_power' or 'snr_db'")


def _cmd_geom(args):
    geom = _parse_array(args.array)
    co = geometry.difference_coarray(geom)
    if args.f_csv:
        _check_entries(geom, 'selection matrix F',
                       (2 * co.mv - 1, geom.n_sensors ** 2))
        f = geometry.selection_matrix(co)
        _write_text(args.f_csv, ''.join(
            ','.join(repr(float(v)) for v in row) + '\n' for row in f))
    print(f'array: {geom.name}')
    print('positions (half-wavelengths):',
          ' '.join(str(p) for p in geom.positions))
    print(f'sensors: {geom.n_sensors}  aperture: {geom.aperture}'
          f'  virtual ULA size: {co.mv}')
    print('lag  weight')
    for lag in range(max(co.weights) + 1):
        print(f'{lag:3d}  {co.weights.get(lag, 0):d}')
    if args.f_csv:
        print(f'selection matrix written to {args.f_csv}')
    return 0


def _cmd_estimate(args):
    _check_field('--grid-step-deg', args.grid_step_deg, 'value', _POSITIVE)
    _check_field('--n', args.n, 'value', _FIELDS['n_snapshots'][1])
    geom = _parse_array(args.array)
    scenario = _load_scenario(args.scenario)
    co = geometry.difference_coarray(geom)
    _check_estimable(geom, co.mv, scenario, args.grid_step_deg)
    _check_music_size(geom, co.mv, f'snapshot matrix at --n {args.n}',
                      (geom.n_sensors, args.n))
    seed = np.random.SeedSequence(args.seed)
    snapshots = model.simulate_snapshots(geom, scenario, args.n, seed)
    if args.dump_snapshots:
        model.dump_snapshots_csv(snapshots, args.dump_snapshots)
    z = model.virtual_observation(co, model.sample_covariance(snapshots))
    est = run_music(z, co.mv, scenario.n_sources, method=args.method,
                    grid_step=np.deg2rad(args.grid_step_deg))
    if not est.resolved:
        print(f'unresolved: found {len(est.angles)} of '
              f'{scenario.n_sources} sources', file=sys.stderr)
    estimates = list(est.angles) + [float('nan')] * (
        scenario.n_sources - len(est.angles))
    rows = tuple((i, float(np.rad2deg(true)), float(np.rad2deg(est_i)),
                  float(np.rad2deg(est_i - true)))
                 for i, (true, est_i) in enumerate(zip(scenario.doas,
                                                       estimates)))
    _write_table(Table(('source', 'theta_true_deg', 'theta_est_deg',
                        'error_deg'), rows), args.out)
    return 0


def _write_table(table, path):
    """Write a table as CSV to ``path``, or to stdout without one."""
    if path:
        _write_text(path, _csv_text(table))
    else:
        sys.stdout.write(_csv_text(table))


def _cmd_analyze(args):
    table = _analyze_table(load_config(args.config))
    _write_table(table, args.out)
    if table.rows and not any(row[-1] for row in table.rows):  # crb_defined
        print('CRB undefined at every requested point', file=sys.stderr)
        return 3
    return 0


def _cmd_run(args):
    _check_field('--threads', args.threads, 'value',
                 _count(1, os.cpu_count() or 1))
    # the overrides are checked by the config's own field rules
    overrides = {'seed': args.seed, 'out_dir': args.out}
    cfg = dataclasses.replace(load_config(args.config), **{
        name: value for name, value in overrides.items() if value is not None})
    # making the directory checks, before any trial, that it can be
    # written; a run that raises anything, a bad sweep point or a
    # numerical failure among them, takes away the directories made
    # here (listed deepest first), which it has not written to yet
    made, path = [], os.path.abspath(cfg.out_dir)
    while not os.path.lexists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        tables = run(cfg, threads=args.threads)
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
    for path in emit_outputs(tables, cfg.out_dir, cfg):
        print(path)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog='coarray-lab',
        description='Coarray DOA estimation and its closed-form analytics.')
    parser.add_argument('--version', action='version',
                        version=f'coarray-lab {__version__}')
    sub = parser.add_subparsers(dest='command', required=True)

    p_geom = sub.add_parser('geom', help='inspect an array and its coarray')
    p_geom.add_argument('--array', required=True,
                        help="array spec, e.g. 'mra:10' or 'coprime:3,5'")
    p_geom.add_argument('--f-csv', metavar='PATH',
                        help='also write the selection matrix as CSV')
    p_geom.set_defaults(func=_cmd_geom)

    p_est = sub.add_parser('estimate',
                           help='run MUSIC on one simulated batch')
    p_est.add_argument('--array', required=True)
    p_est.add_argument('--scenario', required=True,
                       help='scenario JSON file')
    p_est.add_argument('--n', type=int, default=500,
                       help='number of snapshots')
    p_est.add_argument('--seed', type=int, default=0)
    p_est.add_argument('--method', choices=('da', 'ss'), default='ss')
    p_est.add_argument('--grid-step-deg', type=float, default=0.1)
    p_est.add_argument('--out', metavar='PATH',
                       help='output CSV (default: stdout)')
    p_est.add_argument('--dump-snapshots', metavar='PATH',
                       help='also dump the raw snapshots as CSV')
    p_est.set_defaults(func=_cmd_estimate)

    p_an = sub.add_parser('analyze',
                          help='tabulate closed-form error measures')
    p_an.add_argument('--config', required=True, help='config JSON file')
    p_an.add_argument('--out', metavar='PATH',
                      help='output CSV (default: stdout)')
    p_an.set_defaults(func=_cmd_analyze)

    p_run = sub.add_parser('run', help='execute an experiment sweep')
    p_run.add_argument('--config', required=True, help='config JSON file')
    p_run.add_argument('--seed', type=int, help='override the config seed')
    p_run.add_argument('--out', metavar='DIR',
                       help='override the config output directory')
    p_run.add_argument('--threads', type=int, default=1)
    p_run.set_defaults(func=_cmd_run)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except analysis.NumericalFailure as exc:
        print(f'numerical failure: {exc}', file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
