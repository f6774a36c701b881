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
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from . import analysis, geometry, model
from .estimator import run_music
from .harness import (ConfigError, Table, emit_outputs, load_config, run,
                      _analyze_table, _check_source_count, _csv_text,
                      _is_real, _parse_array, _write_text)


def _load_scenario(path):
    """Read a scenario JSON file.

    Expected keys: ``doas_deg`` (required), then either ``noise_power``
    or ``snr_db``, optionally ``powers`` (list) or ``power`` (scalar).
    """
    try:
        with open(path, encoding='utf-8') as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f'cannot read scenario {path}: {exc}') from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f'scenario {path} is not valid JSON: {exc}') from exc
    if not isinstance(data, dict):
        raise ConfigError('scenario root must be an object')
    known = {'doas_deg', 'powers', 'power', 'noise_power', 'snr_db'}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f'unknown scenario fields: {", ".join(unknown)}')
    if 'doas_deg' not in data:
        raise ConfigError("scenario must set 'doas_deg'")
    for name, value in data.items():
        if name in ('doas_deg', 'powers'):
            if not (isinstance(value, list) and all(map(_is_real, value))):
                raise ConfigError(f'bad scenario: {name} must be a list of '
                                  f'finite numbers, got {value!r}')
        elif not _is_real(value):
            raise ConfigError(f'bad scenario: {name} must be a finite '
                              f'number, got {value!r}')
    try:
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
    except ValueError as exc:
        raise ConfigError(f'bad scenario: {exc}') from exc
    raise ConfigError("scenario must set 'noise_power' or 'snr_db'")


def _cmd_geom(args):
    geom = _parse_array(args.array)
    co = geometry.difference_coarray(geom)
    print(f'array: {geom.name}')
    print('positions (units of d0):',
          ' '.join(str(p) for p in geom.positions))
    print(f'd0: {geom.d0}  wavelength: {geom.wavelength}')
    print(f'sensors: {geom.n_sensors}  aperture: {geom.aperture}'
          f'  virtual ULA size: {co.mv}')
    print('lag  weight')
    for lag in range(max(co.weights) + 1):
        print(f'{lag:3d}  {co.weights.get(lag, 0):d}')
    if args.f_csv:
        f = geometry.selection_matrix(co)
        with open(args.f_csv, 'w', encoding='utf-8', newline='') as fh:
            writer = csv.writer(fh, lineterminator='\n')
            for row in f:
                writer.writerow([repr(float(v)) for v in row])
        print(f'selection matrix written to {args.f_csv}')
    return 0


def _cmd_estimate(args):
    if not _is_real(args.grid_step_deg) or not args.grid_step_deg > 0:
        raise ConfigError(f'grid step must be finite and positive, got '
                          f'{args.grid_step_deg!r} deg')
    geom = _parse_array(args.array)
    scenario = _load_scenario(args.scenario)
    co = geometry.difference_coarray(geom)
    _check_source_count(geom, co.mv, scenario)
    f = geometry.selection_matrix(co)
    seed = np.random.SeedSequence(args.seed)
    snapshots = model.simulate_snapshots(geom, scenario, args.n, seed)
    if args.dump_snapshots:
        model.dump_snapshots_csv(snapshots, args.dump_snapshots)
    z = model.virtual_observation(f, model.sample_covariance(snapshots))
    est = run_music(z, co.mv, scenario.n_sources, method=args.method,
                    grid_step=np.deg2rad(args.grid_step_deg), d0=geom.d0,
                    wavelength=geom.wavelength)
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
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides['seed'] = args.seed
    if args.out is not None:
        overrides['out_dir'] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    os.makedirs(cfg.out_dir, exist_ok=True)
    tables = run(cfg, threads=args.threads)
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
