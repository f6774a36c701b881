"""Experiment harness and CLI tests.

The determinism contract gets the most attention: identical configs
must reproduce byte-identical outputs, and trial estimates must not
depend on how work is chunked across processes.
"""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

from coarray_lab import analysis, cli, geometry, harness, model
from coarray_lab.harness import ExperimentConfig


def tiny_scaling_config(**overrides):
    base = dict(kind='scaling', families=('mra',), q_range=(3, 4, 5),
                k_modes=('one',), n_trials=4, out_dir='results')
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def trial_calls(monkeypatch):
    """(combo_index, methods) of every run_trials call, in call order."""
    calls = []
    real = harness.run_trials

    def spy(geom, scenario, n_snapshots, methods, master_seed, combo_index,
            *args, **kwargs):
        calls.append((combo_index, tuple(methods)))
        return real(geom, scenario, n_snapshots, methods, master_seed,
                    combo_index, *args, **kwargs)

    monkeypatch.setattr(harness, 'run_trials', spy)
    return calls


def test_config_validation():
    with pytest.raises(harness.ConfigError) as err:
        ExperimentConfig(kind='frobnicate')
    assert str(err.value) == (
        "kind must be one of ('verify_mse', 'resolution', 'efficiency', "
        "'scaling'), got 'frobnicate'")
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='verify_mse', method='music')
    for bad in (0, 2.7, True):
        with pytest.raises(harness.ConfigError):
            ExperimentConfig(kind='verify_mse', n_trials=bad)
    for bad in (-1, 1.5, True):
        with pytest.raises(harness.ConfigError):
            ExperimentConfig(kind='verify_mse', seed=bad)
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='verify_mse', arrays=('spiral:4',))
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='verify_mse', arrays=())
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='scaling', families=('fractal',))
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='scaling', k_modes=('two',))
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='resolution', center_deg=90.0)
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='resolution', delta_deg=(0.5, -1.0))
    with pytest.raises(harness.ConfigError):
        ExperimentConfig(kind='verify_mse', snr_db=())
    for field, bad in (('n_snapshots', 0), ('n_snapshots', 20.7),
                       ('n_snapshots', True), ('k_sources', 2.5),
                       ('k_sources', True), ('q_range', 3.5),
                       ('q_range', True)):
        with pytest.raises(harness.ConfigError):
            ExperimentConfig(kind='verify_mse', **{field: (bad,)})
    # an empty sweep list fails whatever the kind reads
    for field in ('k_sources', 'delta_deg', 'families', 'q_range',
                  'k_modes', 'doas_deg'):
        for kind in ('verify_mse', 'resolution', 'efficiency', 'scaling'):
            with pytest.raises(harness.ConfigError, match='empty'):
                ExperimentConfig(kind=kind, **{field: ()})
    assert ExperimentConfig(kind='resolution', delta_deg=None).delta_deg is None
    # values of the wrong type or non-finite ones fail up front
    for field, bad in (('grid_step_deg', np.inf), ('grid_step_deg', np.nan),
                       ('grid_step_deg', 0.0), ('empirical', 'no'),
                       ('empirical', 1),
                       ('doas_deg', '10'), ('doas_deg', ('10',)),
                       ('doas_deg', (True,)), ('doas_deg', (np.inf,)),
                       ('delta_deg', ('0.5',)), ('delta_deg', (np.nan,)),
                       ('snr_db', (True,)), ('center_deg', True),
                       ('center_deg', np.nan), ('center_deg', '30'),
                       ('out_dir', 5), ('out_dir', None)):
        with pytest.raises(harness.ConfigError):
            ExperimentConfig(kind='efficiency', **{field: bad})
    for bad in ({'empirical': 'no'}, {'doas_deg': '10'},
                {'grid_step_deg': float('inf')},
                {'center_deg': True}, {'out_dir': 5},
                # an integer no float can hold is not a finite number
                {'snr_db': [10 ** 400]}):
        with pytest.raises(harness.ConfigError):
            ExperimentConfig.from_mapping({'kind': 'efficiency', **bad})
    # an array spec is a string, and nothing is read through str()
    for bad in (5, None, ['mra:10']):
        with pytest.raises(harness.ConfigError) as err:
            ExperimentConfig.from_mapping({'kind': 'verify_mse',
                                           'arrays': [bad]})
        assert str(err.value) == (
            f"each arrays entry must be an array spec like 'mra:10', "
            f"got {bad!r}")
    with pytest.raises(harness.ConfigError) as err:
        ExperimentConfig(kind='verify_mse', arrays=('mra:42',))
    assert str(err.value).startswith(
        "arrays: bad array spec 'mra:42': no tabulated MRA with 42 sensors")


def test_from_mapping_rejects_unknown_and_converts_lists():
    cfg = ExperimentConfig.from_mapping(
        {'kind': 'verify_mse', 'arrays': ['coprime:2'], 'snr_db': [0, 10]})
    assert cfg.arrays == ('coprime:2',)
    assert cfg.snr_db == (0, 10)
    with pytest.raises(harness.ConfigError, match='unknown config fields'):
        ExperimentConfig.from_mapping({'kind': 'verify_mse', 'snr': [0]})
    with pytest.raises(harness.ConfigError, match="'kind'"):
        ExperimentConfig.from_mapping({'arrays': ['mra:10']})
    with pytest.raises(harness.ConfigError):
        ExperimentConfig.from_mapping(['kind', 'verify_mse'])


def test_load_config(tmp_path):
    path = tmp_path / 'cfg.json'
    path.write_text(json.dumps({'kind': 'scaling', 'n_trials': 7}))
    cfg = harness.load_config(path)
    assert cfg.kind == 'scaling'
    assert cfg.n_trials == 7
    path.write_text('{not json')
    with pytest.raises(harness.ConfigError, match='not valid JSON'):
        harness.load_config(path)
    with pytest.raises(harness.ConfigError, match='cannot read'):
        harness.load_config(tmp_path / 'missing.json')


def test_config_digest_tracks_every_field():
    # every field but the kind, each changed on a kind that reads it
    changed = {
        'verify_mse': dict(seed=1, n_trials=9, method='da',
                           out_dir='elsewhere', grid_step_deg=0.5,
                           arrays=('mra:10',), snr_db=(5.0,),
                           n_snapshots=(100,), doas_deg=(10.0, 20.0)),
        'resolution': dict(center_deg=10.0, delta_deg=(1.0,)),
        'efficiency': dict(k_sources=(2,), empirical=True),
        'scaling': dict(q_range=(3, 4), families=('mra',), k_modes=('one',)),
    }
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {'kind'}.union(*changed.values()) == fields
    digests = {harness.config_digest(ExperimentConfig(kind=kind))
               for kind in changed}
    assert len(digests) == len(changed)
    for kind, values in changed.items():
        cfg = ExperimentConfig(kind=kind)
        assert harness.config_digest(cfg) == harness.config_digest(
            ExperimentConfig(kind=kind))
        for field, value in values.items():
            other = dataclasses.replace(cfg, **{field: value})
            assert harness.config_digest(other) != harness.config_digest(
                cfg), (kind, field)


def test_parse_array_specs():
    assert harness._parse_array('coprime:3,5') == geometry.coprime(3, 5)
    assert harness._parse_array('mra:10') == geometry.mra(10)
    assert harness._parse_array('custom:0,1,4').positions == (0, 1, 4)
    with pytest.raises(harness.ConfigError):
        harness._parse_array('coprime:4,6')
    with pytest.raises(harness.ConfigError):
        harness._parse_array('mra:ten')


def test_failure_gate():
    assert harness._failure_gate((0.1,)) == pytest.approx(np.pi / 4)
    assert harness._failure_gate((-0.2, 0.1, 0.5)) == pytest.approx(0.15)


def test_run_trials_detailed_records():
    # one row per (method, trial): ascending angles in radians, or NaN
    # throughout; the method axis follows the order asked for
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 25.0]), 10.0)
    kwargs = dict(n_snapshots=100, master_seed=5, combo_index=2, n_trials=3,
                  grid_step=np.deg2rad(0.5))
    est = harness.run_trials(geom, sc, methods=('da', 'ss'), **kwargs)
    assert est.shape == (2, 3, 2)
    assert est.dtype == float
    for row in est.reshape(-1, 2):
        assert np.all(np.isnan(row)) or (np.all(np.isfinite(row))
                                         and row[0] < row[1])
    np.testing.assert_array_equal(
        harness.run_trials(geom, sc, methods=('ss', 'da'), **kwargs),
        est[::-1])
    for i, method in enumerate(('da', 'ss')):
        np.testing.assert_array_equal(
            harness.run_trials(geom, sc, methods=(method,), **kwargs),
            est[i:i + 1])


def test_run_trials_reproducible_and_chunking_invariant():
    # past one draw slice the trials run as two blocks, in this process
    # and on the workers alike
    geom = geometry.coprime(2)
    sc = model.SourceScenario.with_snr(np.deg2rad([-20.0, 25.0]), 0.0)
    with harness._worker_pool(2) as pool:
        for n_trials in (6, harness._DRAW_SLICE + 5):
            kwargs = dict(n_snapshots=80, methods=('ss',), master_seed=99,
                          combo_index=0, n_trials=n_trials,
                          grid_step=np.deg2rad(0.5))
            serial = harness.run_trials(geom, sc, **kwargs)
            again = harness.run_trials(geom, sc, **kwargs)
            parallel = harness.run_trials(geom, sc, pool=pool, **kwargs)
            assert serial.shape == (1, n_trials, 2)
            np.testing.assert_array_equal(serial, again)
            np.testing.assert_array_equal(serial, parallel)


def test_run_trials_blocks_are_draw_slices_shared_over_workers(monkeypatch):
    # in this process a point runs in draw slices; on a pool a point of
    # fewer than a slice per worker runs as one block per worker
    seen = []

    def block(geom, scenario, n, methods, seed, combo, step, trials):
        seen.append((trials.start, trials.stop))
        return np.zeros((len(methods), len(trials), 2))

    monkeypatch.setattr(harness, '_trial_block', block)
    # the block count comes from the pool's own worker count
    three = harness._Pool(map, 3)
    s = harness._DRAW_SLICE
    for pool, n_trials, want in [
            (None, 2 * s + 1, [(0, s), (s, 2 * s), (2 * s, 2 * s + 1)]),
            (None, 0, [(0, 0)]),
            (three, 10, [(0, 4), (4, 8), (8, 10)]),
            (three, 3 * s + 1, [(0, s), (s, 2 * s), (2 * s, 3 * s),
                                (3 * s, 3 * s + 1)])]:
        seen.clear()
        est = harness.run_trials(None, None, 50, ('da', 'ss'), 1, 0,
                                 n_trials, 0.01, pool)
        assert est.shape == (2, n_trials, 2)
        assert seen == want


def test_trial_matches_direct_replay():
    # each row is reproducible from (seed, combo, trial) alone, for each
    # method and whichever method is replayed first. mv - 1 sources at
    # 0 dB from 10 snapshots leave some SS trials with fewer peaks than
    # sources, unresolved, and their rows are NaN
    from coarray_lab import estimator
    geom = geometry.nested(2, 3)
    co = geometry.difference_coarray(geom)
    k = co.mv - 1
    sc = model.SourceScenario.with_snr(np.deg2rad(np.linspace(-50, 50, k)),
                                       0.0)
    methods = ('da', 'ss')
    est = harness.run_trials(geom, sc, 10, methods, master_seed=31,
                             combo_index=4, n_trials=8,
                             grid_step=np.deg2rad(0.5))
    chol = np.linalg.cholesky(model.true_covariance(geom, sc))
    resolved = set()
    for trial in reversed(range(8)):
        for m in (1, 0):
            estimator._TRIAL_CACHE.clear()
            seed = np.random.SeedSequence(entropy=31, spawn_key=(4, trial))
            r_hat = model.sample_covariance_draw(chol, 10, seed)
            z = model.virtual_observation(co, r_hat)
            replay = estimator.run_music(z, co.mv, k, method=methods[m],
                                         grid_step=np.deg2rad(0.5))
            resolved.add(replay.resolved)
            want = replay.angles if replay.resolved else [np.nan] * k
            np.testing.assert_array_equal(est[m, trial], want)
    assert resolved == {True, False}


def test_trials_past_a_draw_slice_match_direct_replay():
    # a block draws its trials in stacks of harness._DRAW_SLICE; the
    # three trials past the first stack replay from their own seeds too,
    # through the one-seed draw and the one-covariance lag average
    from coarray_lab import estimator
    geom = geometry.nested(2, 3)
    sc = model.SourceScenario.with_snr(np.deg2rad([-5.0, 20.0]), 0.0)
    n_trials = harness._DRAW_SLICE + 3
    methods = ('da', 'ss')
    est = harness.run_trials(geom, sc, 40, methods, master_seed=5,
                             combo_index=2, n_trials=n_trials,
                             grid_step=np.deg2rad(0.5))
    assert est.shape == (2, n_trials, 2)
    co = geometry.difference_coarray(geom)
    chol = np.linalg.cholesky(model.true_covariance(geom, sc))
    for trial in range(n_trials):
        seed = np.random.SeedSequence(entropy=5, spawn_key=(2, trial))
        z = model.virtual_observation(
            co, model.sample_covariance_draw(chol, 40, seed))
        for m, method in enumerate(methods):
            estimator._TRIAL_CACHE.clear()
            replay = estimator.run_music(z, co.mv, 2, method=method,
                                         grid_step=np.deg2rad(0.5))
            want = replay.angles if replay.resolved else [np.nan] * 2
            np.testing.assert_array_equal(est[m, trial], want)
    assert np.all(np.isfinite(est[:, -3:]))


def test_fifty_percent_crossing():
    x = [1.0, 2.0, 3.0]
    assert harness.fifty_percent_crossing(x, [0.2, 0.6, 0.9]) == pytest.approx(1.75)
    assert harness.fifty_percent_crossing(x, [0.0, 0.5, 1.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        harness.fifty_percent_crossing(x, [0.6, 0.7, 0.9])
    with pytest.raises(ValueError):
        harness.fifty_percent_crossing(x, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        harness.fifty_percent_crossing([1.0, 1.0, 2.0], [0.1, 0.4, 0.9])
    with pytest.raises(ValueError):
        harness.fifty_percent_crossing([1.0], [0.4])


def test_verify_mse_runner_schema(trial_calls):
    cfg = ExperimentConfig(kind='verify_mse', arrays=('coprime:2',),
                           snr_db=(10.0,), n_snapshots=(200, 300), n_trials=5,
                           method='both', doas_deg=(-20.0, 25.0),
                           grid_step_deg=0.5)
    tables = harness.run(cfg)
    table = tables['verify_mse']
    assert table.header[:8] == ('array', 'method', 'snr_db', 'n_snapshots',
                                'trials', 'mse_an_rad2', 'mse_em_rad2',
                                'rel_err')
    assert len(table.rows) == 4  # one per method and snapshot count
    assert trial_calls == [(0, ('da', 'ss')), (1, ('da', 'ss'))]
    for row in table.rows:
        named = dict(zip(table.header, row))
        assert named['array'] == 'coprime(2,3)'
        assert named['trials'] == 5
        assert named['mse_an_rad2'] > 0
        assert named['failed_trials'] >= 0


def test_resolution_runner_schema(trial_calls):
    cfg = ExperimentConfig(kind='resolution', arrays=('mra:10',),
                           snr_db=(0.0,), n_snapshots=(120,), n_trials=4,
                           delta_deg=(1.0, 2.5), grid_step_deg=0.5)
    table = harness.run(cfg)['resolution']
    assert table.header == ('array', 'method', 'snr_db', 'n_snapshots',
                            'delta_deg', 'trials', 'p_resolve',
                            'p_resolve_se', 'predicted_threshold_deg')
    assert len(table.rows) == 2
    thresholds = {row[-1] for row in table.rows}
    assert len(thresholds) == 1  # same sweep point, same prediction
    assert all(0.0 <= row[6] <= 1.0 for row in table.rows)
    assert trial_calls == [(0, ('ss',)), (1, ('ss',))]  # one per separation


def test_efficiency_runner_schema():
    cfg = ExperimentConfig(kind='efficiency', arrays=('coprime:2',),
                           k_sources=(1, 7), snr_db=(0.0,),
                           n_snapshots=(100,))
    table = harness.run(cfg)['efficiency']
    assert table.header == ('array', 'k', 'snr_db', 'n_snapshots',
                            'kappa_analytic', 'crb_defined',
                            'kappa_empirical', 'kappa_empirical_se',
                            'trials', 'failed_trials')
    assert len(table.rows) == 2
    for row in table.rows:
        named = dict(zip(table.header, row))
        assert named['crb_defined'] in (0, 1)
        if named['crb_defined']:
            assert 0.0 < named['kappa_analytic'] <= 1.05
        else:
            assert np.isnan(named['kappa_analytic'])
        # analytic-only run leaves the empirical columns empty
        assert named['trials'] == 0
        assert np.isnan(named['kappa_empirical'])


def test_efficiency_runner_empirical_columns(trial_calls):
    cfg = ExperimentConfig(kind='efficiency', arrays=('coprime:2',),
                           k_sources=(1,), snr_db=(10.0,),
                           n_snapshots=(150,), n_trials=12,
                           grid_step_deg=0.5, empirical=True)
    table = harness.run(cfg)['efficiency']
    named = dict(zip(table.header, table.rows[0]))
    assert named['trials'] == 12
    assert np.isfinite(named['kappa_empirical'])
    assert named['kappa_empirical'] > 0
    assert np.isfinite(named['kappa_empirical_se'])
    assert trial_calls == [(0, ('ss',))]
    # the table has no method column, so it cannot hold two methods
    with pytest.raises(harness.ConfigError,
                       match="efficiency runs one method"):
        dataclasses.replace(cfg, method='both')


@pytest.mark.parametrize('placement', [
    dict(arrays=('coprime:2', 'ula:3'), k_sources=(1, 2)),
    # a pair 1e-3 degrees apart: the CRB is undefined at 0 and 20 dB
    # and defined at 60 dB, so a fan mixes both
    dict(arrays=('coprime:2',), doas_deg=(10.0, 10.001),
         snr_db=(0.0, 20.0, 60.0))])
def test_efficiency_fans_match_the_per_point_route(trial_calls, placement):
    # each fan is evaluated in one call, yet every row equals the one
    # built point by point, and trials stay seeded by the combo index,
    # the point's place in the sweep
    cfg = ExperimentConfig(**{
        'kind': 'efficiency', 'snr_db': (0.0, 20.0), 'n_snapshots': (100, 400),
        'n_trials': 3, 'grid_step_deg': 0.5, 'empirical': True, **placement})
    rows = harness.run(cfg)['efficiency'].rows
    points = harness._sweep(cfg)[0]
    assert len(rows) == len(points)
    ran = []
    for combo, (p, row) in enumerate(zip(points, rows)):
        report = analysis.crb(p.geom, p.scenario, p.n)
        kappa = kappa_em = float('nan')
        if report.defined:
            kappa = analysis.efficiency_kappa(
                report, analysis.analytical_mse(p.geom, p.scenario, p.n))
            ran.append((combo, ('ss',)))
            ok, = harness._trial_successes(cfg, combo, p, ('ss',), None)
            if len(ok):
                kappa_em = float(np.trace(report.crb)) / float(np.sum(
                    np.mean(np.square(ok), axis=0)))
        assert row[:4] == (p.geom.name, p.scenario.n_sources, p.snr, p.n)
        assert row[5] == int(report.defined)
        np.testing.assert_array_equal(row[4:7:2], (kappa, kappa_em))
    assert ran
    if 'doas_deg' in placement:
        assert len(ran) < len(points)
    # the table's trial runs, then the replay's, at the same combos
    assert trial_calls == ran + ran


def test_scaling_runner_schema_and_slope(trial_calls):
    cfg = tiny_scaling_config(q_range=(2, 3, 4, 5, 13), empirical=True,
                              method='da')
    tables = harness.run(cfg)
    table = tables['scaling']
    assert table.header == ('family', 'k_mode', 'q', 'm', 'mv',
                            'eps_an_rad2', 'eps_em_rad2', 'eps_em_se_rad2',
                            'trials', 'failed_trials', 'fitted_slope')
    assert len(table.rows) == 3  # sizes 2 and 13 have no tabulated design
    slopes = {row[-1] for row in table.rows}
    assert len(slopes) == 1
    assert next(iter(slopes)) < 0  # error decays with aperture
    for row in table.rows:
        named = dict(zip(table.header, row))
        geom = geometry.mra(named['q'])
        assert named['m'] == geom.n_sensors
        assert named['mv'] == geometry.difference_coarray(geom).mv
    notices = tables['notices']
    assert notices.header == ('message',)
    assert [msg.split()[2] for (msg,) in notices.rows] == ['2', '13']
    # skipped sizes take no combo index, and the config's method runs
    assert trial_calls == [(0, ('da',)), (1, ('da',)), (2, ('da',))]
    # the table has no method column, so it cannot hold two methods
    with pytest.raises(harness.ConfigError, match="scaling runs one method"):
        dataclasses.replace(cfg, method='both')


def test_scaling_skips_a_size_past_the_sensor_cap():
    # coprime(342) would have 1026 sensors: refused before its positions
    # are built, it is skipped as an untabulated MRA size is
    cfg = ExperimentConfig(kind='scaling', families=('coprime',),
                           q_range=(3, 342), k_modes=('one',))
    tables = harness.run(cfg)
    assert [row[2] for row in tables['scaling'].rows] == [3]
    assert tables['notices'].rows == (
        ('coprime size 342 not available; skipped',),)


def test_scaling_notices_each_skipped_size_once():
    # both k_modes meet the sizes that no MRA is tabulated for
    cfg = ExperimentConfig(kind='scaling', q_range=tuple(range(2, 17)),
                           snr_db=(0.0,), n_snapshots=(1000,))
    notices = harness.run(cfg)['notices']
    assert notices.rows == tuple(
        (f'mra size {q} not available; skipped',) for q in (2, 13, 14, 15, 16))


def test_scaling_rows_match_the_point_by_point_closed_form(monkeypatch):
    # the scaling rows read the fan route: a repeated size forms one
    # two-point fan, and every eps is the mean of the point's own
    # analytical_mse diagonal, bit for bit
    built = []
    real_coefficients = analysis.mse_coefficients
    real_mse = analysis.analytical_mse

    def counted(geom, scenario):
        built.append(geom)
        return real_coefficients(geom, scenario)

    def unused(*args):
        raise AssertionError('the harness calls analytical_mse')

    monkeypatch.setattr(analysis, 'mse_coefficients', counted)
    monkeypatch.setattr(analysis, 'analytical_mse', unused)
    cfg = tiny_scaling_config(q_range=(3, 4, 4, 5))
    rows = harness.run(cfg)['scaling'].rows
    points = harness._sweep(cfg)[0]
    assert [g.name for g in built] == ['mra(3)', 'mra(4)', 'mra(5)']
    assert len(rows) == len(points) == 4
    for p, row in zip(points, rows):
        co = geometry.difference_coarray(p.geom)
        assert row[:5] == p.tags == ('mra', 'one', p.geom.n_sensors,
                                     p.geom.n_sensors, co.mv)
        want = np.mean(np.diag(real_mse(p.geom, p.scenario, p.n)))
        np.testing.assert_array_equal(row[5], want)


def _synthetic_estimates(doas, errors):
    """A run_trials result: the true DOAs plus per-trial errors."""
    return np.asarray(doas) + np.asarray(errors, dtype=float)


def test_trial_successes_pins_the_success_rule(monkeypatch):
    # dyadic DOAs and errors, so estimate - DOA gives each error exactly
    doas = (0.25, 0.5)
    nan = float('nan')
    estimates = _synthetic_estimates(doas, [
        # DA: a success, an unresolved trial, a success near the gate
        [(2 ** -6, -2 ** -5), (nan, nan), (-31 / 256, 0.0)],
        # SS: a success, an error equal to the gate, one beyond it
        [(3 / 64, 1 / 16), (1 / 32, -0.125), (0.25, 0.0)],
    ])
    monkeypatch.setattr(harness, 'run_trials', lambda *args: estimates)
    cfg = ExperimentConfig(kind='verify_mse', n_trials=3)
    p = harness._Point(geometry.coprime(2),
                       model.SourceScenario(doas, (1.0, 1.0), 1.0),
                       100, 0.0, (), 0)
    da, ss = harness._trial_successes(cfg, 0, p, ('da', 'ss'), None,
                                      gate=0.125)
    assert da.dtype == ss.dtype == float
    np.testing.assert_array_equal(da, [[2 ** -6, -2 ** -5], [-31 / 256, 0.0]])
    np.testing.assert_array_equal(ss, [[3 / 64, 1 / 16]])
    monkeypatch.setattr(harness, 'run_trials',
                        lambda *args: estimates[1:])
    none, = harness._trial_successes(cfg, 0, p, ('ss',), None,
                                     gate=2 ** -7)
    assert none.shape == (0, 2)


def test_rows_without_a_successful_trial_read_nan(monkeypatch):
    # every trial misses by a radian, outside every gate
    def missed(geom, scenario, n, methods, seed, combo, n_trials, *args):
        return _synthetic_estimates(
            scenario.doas, np.ones((len(methods), n_trials,
                                    scenario.n_sources)))

    monkeypatch.setattr(harness, 'run_trials', missed)
    cfg = ExperimentConfig(kind='verify_mse', arrays=('coprime:2',),
                           snr_db=(10.0,), n_snapshots=(100,), n_trials=3,
                           method='both', doas_deg=(-20.0, 25.0))
    table = harness.run(cfg)['verify_mse']
    assert len(table.rows) == 2
    for row in table.rows:
        named = dict(zip(table.header, row))
        assert np.isfinite(named['mse_an_rad2'])
        assert np.isnan(named['mse_em_rad2'])
        assert np.isnan(named['rel_err'])
        assert np.isnan(named['mse_em_se_rad2'])
        assert named['failed_trials'] == 3
    for kind, empirical, placement in (
            ('efficiency', ('kappa_empirical', 'kappa_empirical_se'),
             dict(arrays=('coprime:2',), k_sources=(1,))),
            ('scaling', ('eps_em_rad2', 'eps_em_se_rad2'),
             dict(families=('mra',), q_range=(3,), k_modes=('one',)))):
        cfg = ExperimentConfig(kind=kind, n_trials=3, empirical=True,
                               **placement)
        table = harness.run(cfg)[kind]
        named = dict(zip(table.header, table.rows[0]))
        assert all(np.isnan(named[c]) for c in empirical), kind
        assert named['trials'] == named['failed_trials'] == 3, kind


def test_resolution_se_is_the_binomial_se_over_all_trials(monkeypatch):
    # 3 of 5 trials resolve (exact estimates), 2 are unresolved (NaN), so
    # p = 0.6 and its SE is sqrt(p (1 - p) / 5), not over the 3 successes
    def three_of_five(geom, scenario, n, methods, seed, combo, n_trials,
                      *args):
        errors = np.zeros((len(methods), n_trials, scenario.n_sources))
        errors[:, 3:] = np.nan
        return _synthetic_estimates(scenario.doas, errors)

    monkeypatch.setattr(harness, 'run_trials', three_of_five)
    cfg = ExperimentConfig(kind='resolution', arrays=('mra:10',),
                           snr_db=(0.0,), n_snapshots=(120,), n_trials=5,
                           delta_deg=(2.0,), grid_step_deg=0.5)
    table = harness.run(cfg)['resolution']
    named = dict(zip(table.header, table.rows[0]))
    assert named['trials'] == 5
    assert named['p_resolve'] == 0.6
    assert named['p_resolve_se'] == pytest.approx(np.sqrt(0.6 * 0.4 / 5),
                                                  rel=1e-15)


def test_efficiency_se_is_the_delta_method_se_of_a_replay():
    # kappa = C / S, with S the summed per-source MSE, the mean over the
    # successful trials of each trial's summed squared error. By the
    # delta method SE(kappa) = C SE(S) / S^2, a relative SE carried over
    # from the MSE, here replayed from run_trials and the failure gate
    cfg = ExperimentConfig(kind='efficiency', arrays=('coprime:2',),
                           k_sources=(2,), snr_db=(10.0,),
                           n_snapshots=(150,), n_trials=12,
                           grid_step_deg=0.5, empirical=True)
    table = harness.run(cfg)['efficiency']
    named = dict(zip(table.header, table.rows[0]))
    assert named['k'] == 2 and named['crb_defined'] == 1
    p, = harness._sweep(cfg)[0]
    est = harness.run_trials(p.geom, p.scenario, p.n, ('ss',), cfg.seed, 0,
                             cfg.n_trials, np.deg2rad(cfg.grid_step_deg))
    errors = est[0] - np.asarray(p.scenario.doas)
    ok = np.all(np.abs(errors) < harness._failure_gate(p.scenario.doas),
                axis=1)
    assert 3 <= ok.sum() == cfg.n_trials - named['failed_trials']
    summed = np.sum(np.square(errors[ok]), axis=1)
    s, s_se = summed.mean(), summed.std(ddof=1) / np.sqrt(ok.sum())
    c = float(np.trace(analysis.crb(p.geom, p.scenario, p.n).crb))
    assert named['kappa_empirical'] == pytest.approx(c / s, rel=1e-12)
    assert named['kappa_empirical_se'] == pytest.approx(c * s_se / s ** 2,
                                                        rel=1e-12)


def test_scaling_runner_too_few_points_gives_nan_slope():
    table = harness.run(tiny_scaling_config(q_range=(3, 4)))['scaling']
    assert len(table.rows) == 2
    assert all(np.isnan(row[-1]) for row in table.rows)


@pytest.mark.parametrize('overrides', [
    # K = 12 is not below mv = 8 of coprime(2), the second array
    dict(kind='efficiency', arrays=('coprime:3,5', 'coprime:2'),
         k_sources=(1, 12), empirical=True),
    dict(kind='verify_mse', doas_deg=(10.0, -5.0)),
    dict(kind='efficiency', doas_deg=(10.0, 10.0)),
    dict(kind='resolution', center_deg=89.0, delta_deg=(1.0, 4.0)),
])
def test_bad_sweep_points_fail_before_any_trial(trial_calls, overrides):
    cfg = ExperimentConfig(snr_db=(0.0,), n_snapshots=(100,), n_trials=2,
                           **overrides)
    with pytest.raises(harness.ConfigError):
        harness.run(cfg)
    assert trial_calls == []


@pytest.mark.parametrize('overrides, message', [
    (dict(kind='efficiency', arrays=('coprime:3,5', 'coprime:2'),
          k_sources=(1, 12)),
     'coprime(2,3) needs fewer than mv = 8 sources, got 12'),
    # the SNR of the K = 1 fan fails before the K = 12 fan is reached
    (dict(kind='efficiency', arrays=('coprime:2',), k_sources=(1, 12),
          snr_db=(0.0, -4000.0)),
     'coprime(2,3): SNR -4000.0 dB is out of range'),
    (dict(kind='efficiency', arrays=('coprime:2',), k_sources=(12, 1),
          snr_db=(0.0, -4000.0)),
     'coprime(2,3) needs fewer than mv = 8 sources, got 12'),
    (dict(kind='verify_mse', arrays=('coprime:3,5',), grid_step_deg=1e-300),
     'coprime(3,5): a grid step of 1.7453292519943295e-302 rad at mv = 18 '
     'needs more than 1048576 scan phases'),
    (dict(kind='scaling', families=('coprime',), q_range=(2, 3),
          snr_db=(-4000.0,)),
     'coprime(2,3): SNR -4000.0 dB is out of range'),
])
def test_sweep_raises_the_first_bad_points_message(overrides, message):
    cfg = ExperimentConfig(**{'snr_db': (0.0,), 'n_snapshots': (100,),
                              **overrides})
    with pytest.raises(harness.ConfigError) as info:
        harness._sweep(cfg)
    assert str(info.value) == message


def test_sweep_checks_estimability_once_per_array_and_k(monkeypatch):
    checked = []
    real = harness._check_estimable

    def counted(geom, mv, scenario, grid_step_deg):
        checked.append((geom.name, scenario.n_sources))
        return real(geom, mv, scenario, grid_step_deg)

    monkeypatch.setattr(harness, '_check_estimable', counted)
    cfg = ExperimentConfig(kind='efficiency',
                           arrays=('coprime:3,5', 'nested:4,6', 'mra:10'),
                           k_sources=(1, 2, 4), snr_db=(-10.0, 0.0, 10.0),
                           n_snapshots=(100, 500), empirical=False)
    points = harness._sweep(cfg)[0]
    assert len(points) == 3 * 3 * 3 * 2
    assert checked == [(name, k) for name in ('coprime(3,5)', 'nested(4,6)',
                                              'mra(10)') for k in (1, 2, 4)]


NESTED_64 = dict(arrays=('coprime:3,5', 'nested:64,64'))


@pytest.mark.parametrize('overrides, refused', [
    (dict(kind='verify_mse', **NESTED_64), 'nested(64,64)'),
    (dict(kind='resolution', **NESTED_64), 'nested(64,64)'),
    (dict(kind='efficiency', empirical=True, **NESTED_64), 'nested(64,64)'),
    (dict(kind='scaling', families=('nested',), q_range=(2, 63),
          k_modes=('one',), empirical=True), 'nested(64,63)'),
], ids=['verify_mse', 'resolution', 'efficiency', 'scaling'])
def test_sweep_refuses_trial_arrays_over_the_size_limit(overrides, refused):
    # nested(64,64) has 128 sensors and mv = 4160: the real-form gather
    # run_music would build is 2 x 4160 x 4160, 277 MB as float64, so a
    # config that runs trials is refused before any is built; the closed
    # forms run no estimator, so the same sweep without trials is accepted
    cfg = ExperimentConfig(snr_db=(0.0,), n_snapshots=(100,), **overrides)
    mv = {'nested(64,64)': 4160, 'nested(64,63)': 4095}[refused]
    with pytest.raises(harness.ConfigError) as info:
        harness._sweep(cfg)
    assert str(info.value) == (f'{refused}: its real-form gather would be '
                               f'2 x {mv} x {mv}, over 16777216 entries')
    if cfg.kind in ('efficiency', 'scaling'):
        closed = harness._sweep(dataclasses.replace(cfg, empirical=False))[0]
        assert closed[-1].geom.name == refused


@pytest.mark.parametrize('limit, message', [
    (64 * 22 * 22 - 1, 'block of sample covariances would be 64 x 22 x 22'),
    (2 * 132 * 132 - 1, 'real-form gather would be 2 x 132 x 132'),
    (132 * 265 - 1, 'null-polynomial buffer would be 132 x 265'),
], ids=['draws', 'gather', 'buffer'])
def test_sweep_checks_each_array_a_trial_block_builds(monkeypatch, limit,
                                                      message):
    # nested(11,11) has 22 sensors and mv = 132, so its three arrays are
    # in ascending size: one entry under each size refuses it, and at
    # the largest size the sweep is accepted
    cfg = ExperimentConfig(kind='verify_mse', arrays=('nested:11,11',),
                           doas_deg=(0.0,))
    monkeypatch.setattr(harness, '_MAX_ENTRIES', limit)
    with pytest.raises(harness.ConfigError) as info:
        harness._sweep(cfg)
    assert str(info.value) == (f'nested(11,11): its {message}, '
                               f'over {limit} entries')
    monkeypatch.setattr(harness, '_MAX_ENTRIES', 132 * 265)
    assert len(harness._sweep(cfg)[0]) == 1


def test_cli_refuses_a_selection_matrix_over_the_size_limit(
        tmp_path, capsys, monkeypatch):
    # mra(10)'s F is 71 x 100: one entry under its size refuses it in
    # geom --f-csv, the one command that builds F; estimate, which needs
    # no F, is held to the arrays it does build
    monkeypatch.setattr(harness, '_MAX_ENTRIES', 71 * 100 - 1)
    f_csv = tmp_path / 'f.csv'
    assert cli.main(['geom', '--array', 'mra:10', '--f-csv', str(f_csv)]) == 2
    assert capsys.readouterr() == (
        '', 'error: mra(10): its selection matrix F would be 71 x 100, '
        'over 7099 entries\n')
    assert list(tmp_path.iterdir()) == []
    assert cli.main(['geom', '--array', 'mra:10']) == 0


@pytest.mark.parametrize('n, limit, message', [
    (100000000000, 2 ** 24,
     'mra(10): its snapshot matrix at --n 100000000000 would be '
     '10 x 100000000000, over 16777216 entries'),
    (9223372036854775807, 2 ** 24,
     '--n must be an integer in [1, 4611686018427387904], '
     'got 9223372036854775807'),
    (0, 2 ** 24, '--n must be an integer in [1, 4611686018427387904], got 0'),
    (100, 36 * 73 - 1,
     'mra(10): its null-polynomial buffer would be 36 x 73, over 2627 '
     'entries'),
], ids=['size', 'rule', 'zero', 'estimator'])
def test_cli_estimate_refuses_arrays_over_the_size_limit(
        tmp_path, capsys, monkeypatch, n, limit, message):
    # --n is checked by the n_snapshots rule, and the M x N snapshot
    # matrix and the estimator's arrays by the size limit, before any
    # snapshot is drawn: one error line and no output file
    monkeypatch.setattr(harness, '_MAX_ENTRIES', limit)
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [-20.0, 15.0],
                                    'snr_db': 0.0}))
    assert cli.main(['estimate', '--array', 'mra:10', '--scenario',
                     str(scenario), '--n', str(n),
                     '--out', str(tmp_path / 'est.csv'),
                     '--dump-snapshots', str(tmp_path / 'y.csv')]) == 2
    assert capsys.readouterr() == ('', f'error: {message}\n')
    assert sorted(p.name for p in tmp_path.iterdir()) == ['scenario.json']


def test_trials_and_estimate_build_no_selection_matrix(tmp_path, capsys,
                                                       monkeypatch):
    # z = F vec(R) is a lag average: no trial and no estimate builds F
    def refuse(co):
        raise AssertionError('the dense selection matrix was built')

    monkeypatch.setattr(geometry, 'selection_matrix', refuse)
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'verify_mse', 'arrays': ['mra:5'],
                               'doas_deg': [-20.0, 15.0], 'snr_db': [10.0],
                               'n_snapshots': [100], 'n_trials': 3,
                               'method': 'both'}))
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [-20.0, 15.0],
                                    'snr_db': 10.0}))
    assert cli.main(['run', '--config', str(cfg), '--out',
                     str(tmp_path / 'out')]) == 0
    assert cli.main(['estimate', '--array', 'mra:5', '--scenario',
                     str(scenario), '--out', str(tmp_path / 'est.csv')]) == 0
    assert capsys.readouterr().err == ''


def test_cli_run_refuses_n_trials_past_its_bound(tmp_path, capsys,
                                                 monkeypatch):
    # 2**24 trials are accepted; one more exits 2 with the field table's
    # message, before any trial and with no directory left
    def refuse(*args, **kwargs):
        raise AssertionError('a trial ran')

    monkeypatch.setattr(harness, 'run_trials', refuse)
    fields = {'kind': 'verify_mse', 'arrays': ['coprime:2'],
              'doas_deg': [0.0]}
    ExperimentConfig.from_mapping(dict(fields, n_trials=2 ** 24))
    out_dir = tmp_path / 'out' / 'nested'
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps(dict(fields, n_trials=2 ** 24 + 1)))
    assert cli.main(['run', '--config', str(cfg), '--out',
                     str(out_dir)]) == 2
    assert capsys.readouterr() == (
        '', 'error: n_trials must be an integer in [1, 16777216], '
        'got 16777217\n')
    assert sorted(p.name for p in tmp_path.iterdir()) == ['cfg.json']


def test_cli_run_refuses_an_estimate_array_over_the_size_limit(
        tmp_path, capsys, monkeypatch):
    # a point's estimates, methods x trials x K, are one array: the
    # default eleven-source fan at 2**24 trials of both methods would be
    # 2.95 GB, and at 1000 trials one entry under 2 x 1000 x 11 refuses
    # it, before any trial and with no directory left
    def refuse(*args, **kwargs):
        raise AssertionError('a trial ran')

    monkeypatch.setattr(harness, 'run_trials', refuse)
    cfg = tmp_path / 'cfg.json'
    out_dir = tmp_path / 'out'
    for fields, limit, message in (
            ({'n_trials': 2 ** 24}, 2 ** 24,
             'coprime(3,5): its estimate array would be 2 x 16777216 x 11, '
             'over 16777216 entries'),
            ({'arrays': ['nested:4,6'], 'n_trials': 1000}, 2 * 1000 * 11 - 1,
             'nested(4,6): its estimate array would be 2 x 1000 x 11, over '
             '21999 entries')):
        monkeypatch.setattr(harness, '_MAX_ENTRIES', limit)
        cfg.write_text(json.dumps(dict(fields, kind='verify_mse',
                                       method='both')))
        assert cli.main(['run', '--config', str(cfg), '--out',
                         str(out_dir)]) == 2
        assert capsys.readouterr() == ('', f'error: {message}\n')
        assert sorted(p.name for p in tmp_path.iterdir()) == ['cfg.json']
    monkeypatch.setattr(harness, '_MAX_ENTRIES', 2 * 1000 * 11)
    assert len(harness._sweep(harness.load_config(str(cfg)))[0]) == 1


def test_csv_text_formats_python_and_numpy_cells():
    table = harness.Table(('a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'), (
        (0.1, 3, True, 'coprime(3,5)', np.float64(0.1), np.int64(7),
         np.bool_(False), np.float64('nan')),
        (1e-300, -0, False, 'x,y', np.float64(2.5e16), np.int64(-2),
         np.bool_(True), float('inf')),
        (float('nan'), 10 ** 20, 1.0, '', np.float32(0.1), np.int32(5), -0.0,
         np.float64(-0.0)),
    ))
    text = harness._csv_text(table)
    assert text == (
        'a,b,c,d,e,f,g,h\n'
        '0.1,3,1,"coprime(3,5)",0.1,7,0,nan\n'
        '1e-300,0,0,"x,y",2.5e+16,-2,1,inf\n'
        'nan,100000000000000000000,1.0,,0.10000000149011612,5,-0.0,-0.0\n')
    assert 'np.' not in text


@pytest.mark.parametrize('placement, calls', [
    (dict(arrays=('coprime:2',), k_sources=(1, 2)),
     [(0, ('ss',)), (1, ('ss',))]),
    # the CRB of the 3-sensor array is undefined at this endfire fan, so
    # its point runs no trials but still takes combo index 0
    (dict(arrays=('custom:0,1,3', 'coprime:2'), doas_deg=(-89.0, 0.0, 89.0)),
     [(1, ('ss',))]),
])
def test_analyze_matches_efficiency_run(trial_calls, placement, calls):
    cfg = ExperimentConfig(kind='efficiency', snr_db=(10.0,),
                           n_snapshots=(150,), n_trials=3, grid_step_deg=0.5,
                           empirical=True, **placement)
    table = harness.run(cfg)['efficiency']
    ran = [dict(zip(table.header, row)) for row in table.rows]
    table = harness._analyze_table(cfg)
    # analyze gives one row per source; compare its first source's row
    analyzed = [dict(zip(table.header, row)) for row in table.rows
                if row[table.header.index('source')] == 0]
    assert len(ran) == len(analyzed) > 0
    point = ('array', 'k', 'snr_db', 'n_snapshots', 'crb_defined')
    for r, a in zip(ran, analyzed):
        assert [r[c] for c in point] == [a[c] for c in point]
        np.testing.assert_array_equal(r['kappa_analytic'], a['kappa'])
    assert trial_calls == calls


def test_analyze_follows_the_config_kind():
    cfg = ExperimentConfig(kind='verify_mse', arrays=('coprime:3,5',),
                           snr_db=(0.0, 10.0), n_snapshots=(250,), n_trials=2,
                           grid_step_deg=0.5)
    table = harness._analyze_table(cfg)
    rows = [dict(zip(table.header, row)) for row in table.rows]
    ran = harness.run(cfg)['verify_mse'].rows
    assert len(rows) == 11 * len(ran)
    for i, point in enumerate(ran):
        fan = rows[11 * i:11 * (i + 1)]
        assert [r['source'] for r in fan] == list(range(11))
        assert {(r['array'], r['k'], r['snr_db'], r['n_snapshots'])
                for r in fan} == {(point[0], 11, point[2], point[3])}
        assert float(np.mean([r['eps_rad2'] for r in fan])) == point[5]


def test_emit_outputs_deterministic(tmp_path):
    cfg = tiny_scaling_config()
    tables = harness.run(cfg)
    out = tmp_path / 'results'
    first = harness.emit_outputs(tables, out, cfg)
    snapshot = {os.path.basename(p): pathlib.Path(p).read_bytes()
                for p in first}
    second = harness.emit_outputs(harness.run(cfg), out, cfg)
    assert sorted(first) == sorted(second)
    for path in second:
        assert pathlib.Path(path).read_bytes() == snapshot[
            os.path.basename(path)]
    names = {os.path.basename(p) for p in first}
    assert {'scaling.csv', 'scaling.gp', 'manifest.json'} <= names

    manifest = json.loads((out / 'manifest.json').read_text())
    assert manifest['tool'] == 'coarray-lab'
    assert manifest['kind'] == 'scaling'
    assert manifest['seed'] == cfg.seed
    assert manifest['config_sha256'] == harness.config_digest(cfg)
    assert manifest['tables']['scaling']['rows'] == 3

    script = (out / 'scaling.gp').read_text()
    assert 'plot \\' in script
    assert "set datafile separator ','" in script
    assert 'set logscale xy' in script


def test_resolution_plot_script_marks_threshold(tmp_path):
    cfg = ExperimentConfig(kind='resolution', arrays=('mra:10',),
                           snr_db=(0.0,), n_snapshots=(120,), n_trials=3,
                           delta_deg=(1.0,), grid_step_deg=0.5)
    harness.emit_outputs(harness.run(cfg), tmp_path, cfg)
    script = (tmp_path / 'resolution.gp').read_text()
    assert 'set arrow' in script
    assert script.index('set arrow') < script.index('plot \\')


def test_resolution_plot_keeps_snrs_apart(tmp_path):
    # one series and one threshold arrow per SNR, not one line over both
    cfg = ExperimentConfig(kind='resolution', arrays=('mra:10',),
                           snr_db=(0.0, 10.0), n_snapshots=(120,), n_trials=2,
                           delta_deg=(1.0, 2.0))
    table = harness.run(cfg)['resolution']
    harness.emit_outputs({'resolution': table}, tmp_path, cfg)
    script = (tmp_path / 'resolution.gp').read_text()
    thr = table.header.index('predicted_threshold_deg')
    thresholds = dict.fromkeys(harness._fmt_cell(r[thr]) for r in table.rows)
    assert len(thresholds) == 2
    assert [line for line in script.splitlines() if 'set arrow' in line] == [
        f'set arrow from {t},0 to {t},1 nohead dashtype 2'
        for t in thresholds]
    assert script.count('with linespoints') == 2
    for snr in ('0.0', '10.0'):
        assert f"title 'mra(10) ss {snr} 120'" in script


# Reference for the plot scripts: the per-kind if-chain that built them
# before the table-driven _plot_script, with a representative row per
# series and the threshold arrows spliced in ahead of 'plot \'. The
# resolution series are keyed on SNR and N too, with one arrow per
# (array, SNR, N) threshold, and the efficiency series on N.


def reference_series_filter(header, row, keys):
    clauses = []
    for key in keys:
        col = header.index(key) + 1
        val = row[header.index(key)]
        if isinstance(val, str):
            clauses.append(f"strcol({col}) eq '{val}'")
        else:
            clauses.append(f'column({col}) == {harness._fmt_cell(val)}')
    return ' && '.join(clauses)


def reference_gp_series(table, csv_name, keys, xcol, ycol, logy=False,
                        logx=False):
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
        cond = reference_series_filter(header, row, keys)
        title = ' '.join(harness._fmt_cell(v) for v in tag)
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


def reference_plot_script(name, table, csv_name):
    if name == 'verify_mse':
        return reference_gp_series(table, csv_name,
                                   ('array', 'method', 'n_snapshots'),
                                   'snr_db', 'rel_err', logy=True)
    if name == 'resolution':
        keys = ('array', 'method', 'snr_db', 'n_snapshots')
        script = reference_gp_series(table, csv_name, keys,
                                     'delta_deg', 'p_resolve')
        thr_col = table.header.index('predicted_threshold_deg')
        group = [table.header.index(k)
                 for k in ('array', 'snr_db', 'n_snapshots')]
        arrows = []
        seen = set()
        for row in table.rows:
            tag = tuple(row[i] for i in group)
            if tag in seen:
                continue
            seen.add(tag)
            thr = harness._fmt_cell(row[thr_col])
            arrows.append(f'set arrow from {thr},0 to {thr},1 nohead '
                          'dashtype 2')
        lines = script.split('\n')
        cut = lines.index('plot \\')
        return '\n'.join(lines[:cut] + arrows + lines[cut:])
    if name == 'efficiency':
        return reference_gp_series(table, csv_name,
                                   ('array', 'k', 'n_snapshots'),
                                   'snr_db', 'kappa_analytic')
    if name == 'scaling':
        return reference_gp_series(table, csv_name, ('family', 'k_mode'),
                                   'm', 'eps_an_rad2', logx=True, logy=True)
    return None


PLOT_CONFIGS = {
    'verify_mse': dict(arrays=('coprime:2', 'mra:6'), snr_db=(0.0, 10.0),
                       n_snapshots=(100, 200), n_trials=2, method='both',
                       doas_deg=(-20.0, 25.0)),
    # two arrays at two SNRs: two thresholds each, one arrow each
    # threshold
    'resolution': dict(arrays=('mra:10', 'coprime:3,5'), snr_db=(0.0, 10.0),
                       n_snapshots=(120,), n_trials=2, delta_deg=(1.0, 2.0),
                       method='both'),
    'efficiency': dict(arrays=('coprime:2', 'nested:2,3'), k_sources=(1, 3),
                       snr_db=(-10.0, 0.0, 10.0)),
    'scaling': dict(families=('coprime', 'mra'), q_range=(2, 3, 4),
                    k_modes=('one', 'm')),
}


@pytest.mark.parametrize('kind', sorted(PLOT_CONFIGS))
def test_plot_scripts_match_reference(kind, tmp_path):
    cfg = ExperimentConfig(kind=kind, grid_step_deg=0.5,
                           **PLOT_CONFIGS[kind])
    tables = harness.run(cfg)
    written = harness.emit_outputs(tables, tmp_path, cfg)
    for name, table in tables.items():
        expected = reference_plot_script(name, table, f'{name}.csv')
        script = tmp_path / f'{name}.gp'
        if expected is None:
            assert str(script) not in written
        else:
            assert script.read_text() == expected
    if kind == 'resolution':
        arrows = (tmp_path / 'resolution.gp').read_text().count('set arrow')
        assert arrows == 4


def test_run_opens_one_worker_pool(monkeypatch):
    opened = []

    class Counted(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, 'ProcessPoolExecutor', Counted)
    cfg = ExperimentConfig(kind='verify_mse', arrays=('coprime:2',),
                           snr_db=(10.0,), n_snapshots=(100, 200, 300),
                           n_trials=6, method='both', doas_deg=(-20.0, 25.0),
                           grid_step_deg=0.5)
    serial = harness.run(cfg)
    assert opened == []
    # with no BLAS count set, the workers are spawned with one BLAS
    # thread each; a count the user set is kept, and the environment
    # is restored
    for name in harness._BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    assert harness.run(cfg, threads=2) == serial
    assert len(opened) == 1
    assert opened[0]['max_workers'] == 2
    assert opened[0]['mp_context'].get_start_method() == 'spawn'
    monkeypatch.setenv('MKL_NUM_THREADS', '3')
    with harness._worker_pool(2) as pool:
        seen = list(pool.map(os.getenv, harness._BLAS_THREADS))
    assert seen == ['1', '1', '3']
    assert 'OPENBLAS_NUM_THREADS' not in os.environ
    assert 'OMP_NUM_THREADS' not in os.environ
    assert os.environ['MKL_NUM_THREADS'] == '3'
    # with every count set, the workers are forked as before
    monkeypatch.setenv('OPENBLAS_NUM_THREADS', '2')
    monkeypatch.setenv('OMP_NUM_THREADS', '1')
    opened.clear()
    assert harness.run(cfg, threads=2) == serial
    assert opened == [{'max_workers': 2, 'mp_context': None}]
    with harness._worker_pool(2) as pool:
        seen = list(pool.map(os.getenv, harness._BLAS_THREADS))
    assert seen == ['2', '1', '3']


def test_cli_geom(tmp_path, capsys):
    f_csv = tmp_path / 'f.csv'
    assert cli.main(['geom', '--array', 'mra:10', '--f-csv', str(f_csv)]) == 0
    out = capsys.readouterr().out
    assert 'mra(10)' in out
    assert '0 1 4 10 16 22 28 30 33 35' in out.replace(',', ' ')
    assert '36' in out  # virtual ULA size
    with open(f_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 2 * 36 - 1


def test_cli_geom_bad_spec(capsys):
    assert cli.main(['geom', '--array', 'coprime:4,6']) == 2
    assert 'error' in capsys.readouterr().err


def test_cli_estimate(tmp_path, capsys):
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps(
        {'doas_deg': [-20.0, 15.0], 'snr_db': 0.0}))
    out_csv = tmp_path / 'est.csv'
    snaps_csv = tmp_path / 'snaps.csv'
    code = cli.main(['estimate', '--array', 'coprime:3,5',
                     '--scenario', str(scenario), '--n', '400',
                     '--seed', '3', '--out', str(out_csv),
                     '--dump-snapshots', str(snaps_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == 'source,theta_true_deg,theta_est_deg,error_deg'
    assert len(lines) == 3
    first = lines[1].split(',')
    assert first[0] == '0'
    assert float(first[1]) == pytest.approx(-20.0)
    assert abs(float(first[3])) < 1.0
    assert snaps_csv.read_text().startswith('t,sensor,re,im')


def test_cli_estimate_writes_nan_for_every_source_when_unresolved(tmp_path,
                                                                  capsys):
    # seven peaks for eight sources: which source each belongs to is
    # unknown, so none is paired by position
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps(
        {'doas_deg': list(np.linspace(-60.0, 60.0, 8)), 'snr_db': 10.0}))
    assert cli.main(['estimate', '--array', 'coprime:3,5', '--scenario',
                     str(scenario), '--n', '10', '--seed', '27']) == 0
    captured = capsys.readouterr()
    assert captured.err == 'unresolved: found 7 of 8 sources\n'
    rows = [line.split(',') for line in captured.out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(i) for i in range(8)]
    assert all(row[2] == row[3] == 'nan' for row in rows)


def test_cli_estimate_rejects_bad_scenario(tmp_path, capsys):
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [0.0], 'snr_db': 0.0,
                                    'bogus': 1}))
    assert cli.main(['estimate', '--array', 'coprime:2',
                     '--scenario', str(scenario)]) == 2
    assert 'unknown scenario fields' in capsys.readouterr().err
    scenario.write_text(json.dumps({'doas_deg': [0.0]}))
    assert cli.main(['estimate', '--array', 'coprime:2',
                     '--scenario', str(scenario)]) == 2
    # mistyped values are config errors, not tracebacks
    # JSON booleans are not numbers: true would put a source at 1 deg
    for bad in ({'doas_deg': 5, 'snr_db': 0},
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': [None, 1]},
                {'doas_deg': [True, 40], 'snr_db': 0},
                {'doas_deg': [10, 40], 'snr_db': False},
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': [True, 2]},
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': [2, True]},
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': True},
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': None},
                {'doas_deg': ['10'], 'snr_db': 0},
                # a source power that is not positive, or one per source
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': [1, 0]},
                {'doas_deg': [10, 40], 'snr_db': 0, 'powers': [1]},
                # noise floors that overflow or come out infinite
                {'doas_deg': [10.0], 'snr_db': -4000.0},
                {'doas_deg': [10.0], 'snr_db': -10.0, 'powers': [1e308]}):
        scenario.write_text(json.dumps(bad))
        assert cli.main(['estimate', '--array', 'coprime:2',
                         '--scenario', str(scenario)]) == 2, bad
        out, err = capsys.readouterr()
        assert out == '' and 'bad scenario' in err, bad
    # the config's field rules, read for the scenario: each names the key
    for bad, message in (
            ({'doas_deg': [], 'snr_db': 0}, 'doas_deg must not be an empty '
                                            'list'),
            ({'doas_deg': [10], 'snr_db': 0, 'powers': []},
             'powers must not be an empty list'),
            ({'doas_deg': [10, True], 'snr_db': 0},
             'each doas_deg entry must be a finite number, got True'),
            ({'doas_deg': [10, 40], 'snr_db': 0, 'powers': [1, -2]},
             'each powers entry must be a finite number > 0, got -2'),
            ({'doas_deg': [10, 40]}, 'snr_db must be set')):
        scenario.write_text(json.dumps(bad))
        assert cli.main(['estimate', '--array', 'coprime:2',
                         '--scenario', str(scenario)]) == 2, bad
        assert capsys.readouterr().err == f'error: bad scenario: {message}\n'
    scenario.write_text(json.dumps({'doas_deg': [0.0], 'snr_db': 0.0}))
    for step in ('0', '-0.1', 'inf', 'nan'):
        assert cli.main(['estimate', '--array', 'coprime:2',
                         '--scenario', str(scenario),
                         '--grid-step-deg', step]) == 2, step
        # reported as given, under the flag's name, which says degrees
        assert capsys.readouterr().err == (
            f'error: --grid-step-deg must be a finite number > 0, '
            f'got {float(step)!r}\n')


@pytest.mark.parametrize('extra, unknown', [
    ({'noise_power': 100}, 'noise_power'),
    ({'power': 5, 'powers': [1, 1]}, 'power'),
], ids=['noise_power', 'power'])
def test_cli_estimate_sets_a_scenario_by_snr_alone(tmp_path, capsys, extra,
                                                   unknown):
    # a scenario is set by its SNR and relative powers; an absolute
    # noise power or scalar power is an unknown key, not a setting that
    # overrides snr_db or is overridden by powers
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [-20, 30], 'snr_db': 0,
                                    **extra}))
    out = tmp_path / 'est.csv'
    assert cli.main(['estimate', '--array', 'coprime:3,5', '--scenario',
                     str(scenario), '--n', '200', '--seed', '1',
                     '--out', str(out)]) == 2
    assert capsys.readouterr() == (
        '', f'error: unknown scenario fields: {unknown}\n')
    assert not out.exists()


def test_cli_estimate_writes_the_true_angles_as_given(tmp_path, capsys):
    # 30 degrees through radians and back reads 29.999999999999996
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [-20, 30], 'snr_db': 0,
                                    'powers': [1, 2]}))
    assert cli.main(['estimate', '--array', 'coprime:3,5', '--scenario',
                     str(scenario), '--n', '200', '--seed', '1']) == 0
    rows = [line.split(',')
            for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[1] for row in rows] == ['-20.0', '30.0']
    for row in rows:
        # the error is the estimate's, read in radians
        assert float(row[3]) == pytest.approx(
            float(row[2]) - float(row[1]), abs=1e-12)


def test_cli_estimate_checks_source_count_before_simulating(tmp_path,
                                                             capsys):
    # coprime:2 has mv = 8, so 14 sources cannot be estimated
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps(
        {'doas_deg': list(np.linspace(-60.0, 60.0, 14)), 'snr_db': 0.0}))
    dump = tmp_path / 'snaps.csv'
    assert cli.main(['estimate', '--array', 'coprime:2',
                     '--scenario', str(scenario),
                     '--dump-snapshots', str(dump)]) == 2
    err = capsys.readouterr().err
    assert 'coprime' in err and 'mv = 8' in err
    assert not dump.exists()


def test_cli_estimate_checks_scan_size_before_simulating(tmp_path, capsys):
    # a grid step this fine needs an FFT far past the estimator's
    # ceiling; it fails as a bad argument, before any snapshot is drawn
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [-20.0, 25.0],
                                    'snr_db': 0.0}))
    dump = tmp_path / 'snaps.csv'
    assert cli.main(['estimate', '--array', 'coprime:2',
                     '--scenario', str(scenario), '--grid-step-deg', '1e-300',
                     '--dump-snapshots', str(dump)]) == 2
    out, err = capsys.readouterr()
    assert out == '' and 'grid step' in err and 'scan phases' in err
    assert not dump.exists()


def test_cli_analyze(tmp_path, capsys):
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'efficiency',
                               'arrays': ['coprime:2'],
                               'k_sources': [1, 2],
                               'snr_db': [0.0],
                               'n_snapshots': [100]}))
    out_csv = tmp_path / 'analyze.csv'
    assert cli.main(['analyze', '--config', str(cfg),
                     '--out', str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith('array,k,snr_db,n_snapshots,source')
    assert len(lines) == 1 + 1 + 2  # one k=1 row, two k=2 rows


def test_cli_analyze_reports_undefined_crb(tmp_path, capsys):
    # a pair this close is unresolvable: either the curvature
    # degenerates or the Jacobian drops rank, and both mean exit 3
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'efficiency',
                               'arrays': ['coprime:2'],
                               'doas_deg': [10.0, 10.0 + 6e-8],
                               'snr_db': [0.0],
                               'n_snapshots': [100]}))
    assert cli.main(['analyze', '--config', str(cfg)]) == 3
    assert capsys.readouterr().err != ''


def test_cli_run(tmp_path, capsys):
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'scaling', 'families': ['mra'],
                               'q_range': [3, 4, 5], 'k_modes': ['one'],
                               'n_trials': 2}))
    out_dir = tmp_path / 'out'
    assert cli.main(['run', '--config', str(cfg), '--out', str(out_dir),
                     '--seed', '7']) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert str(out_dir / 'scaling.csv') in printed
    manifest = json.loads((out_dir / 'manifest.json').read_text())
    assert manifest['seed'] == 7
    assert manifest['config']['out_dir'] == str(out_dir)


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'scaling', 'typo_field': 1}))
    assert cli.main(['run', '--config', str(cfg)]) == 2
    assert 'unknown config fields' in capsys.readouterr().err


@pytest.mark.parametrize('bad, named', [
    ({'snr_db': [-4000.0]}, 'out of range'),  # the noise floor overflows
    # every source has unit power: the SNR alone sets the noise floor
    ({'power': 1.0}, 'unknown config fields: power'),
    ({'kind': 'resolution', 'center_deg': True}, 'center_deg'),
    ({'out_dir': 5}, 'out_dir'),
    # an FFT far past the ceiling
    ({'grid_step_deg': 1e-300, 'doas_deg': [-20, 25]}, 'scan phases'),
])
def test_cli_run_rejects_bad_values_before_any_trial(tmp_path, capsys,
                                                     trial_calls, bad, named):
    # two levels of output directory, both made by the run
    out_dir = tmp_path / 'out' / 'run'
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({
        'kind': 'verify_mse', 'arrays': ['coprime:2'], 'snr_db': [0.0],
        'n_snapshots': [100], 'n_trials': 2, 'out_dir': str(out_dir),
        **bad}))
    assert cli.main(['run', '--config', str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ''
    assert err.startswith('error: ') and err.count('\n') == 1, err
    assert named in err
    assert trial_calls == []
    assert not out_dir.parent.exists()


def test_cli_analyze_refuses_a_power_field(tmp_path, capsys, trial_calls):
    # run's half is a case of the test above
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'efficiency', 'power': 2.0}))
    out = tmp_path / 'analyze.csv'
    assert cli.main(['analyze', '--config', str(cfg), '--out', str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ''
    assert err == 'error: unknown config fields: power\n'
    assert trial_calls == []
    assert os.listdir(tmp_path) == ['cfg.json']


# Settings that a kind would drop without notice, and the field each
# error names: a field the kind does not read, a second placement, a
# sweep where scaling reads one value, two methods where one runs
DROPPED_SETTINGS = [
    # the 30 dB and N = 1000 points have no column to show up in
    ({'kind': 'scaling', 'snr_db': [0, 30], 'n_snapshots': [100, 1000],
      'arrays': ['mra:10'], 'doas_deg': [1, 2]}, 'arrays'),
    ({'kind': 'scaling', 'snr_db': [0, 30]}, 'snr_db'),
    ({'kind': 'scaling', 'n_snapshots': [100, 1000]}, 'n_snapshots'),
    ({'kind': 'resolution', 'doas_deg': [29, 31]}, 'doas_deg'),
    ({'kind': 'verify_mse', 'center_deg': 10}, 'center_deg'),
    ({'kind': 'efficiency', 'center_deg': 10}, 'center_deg'),
    ({'kind': 'scaling', 'center_deg': 10}, 'center_deg'),
    ({'kind': 'verify_mse', 'delta_deg': [1.0]}, 'delta_deg'),
    ({'kind': 'efficiency', 'delta_deg': [1.0]}, 'delta_deg'),
    ({'kind': 'scaling', 'delta_deg': [1.0]}, 'delta_deg'),
    ({'kind': 'verify_mse', 'empirical': True}, 'empirical'),
    ({'kind': 'resolution', 'empirical': True}, 'empirical'),
    ({'kind': 'efficiency', 'doas_deg': [-20, 25], 'k_sources': [2]},
     'k_sources'),
    ({'kind': 'efficiency', 'method': 'both'}, 'method'),
    ({'kind': 'scaling', 'method': 'both'}, 'method'),
]


@pytest.mark.parametrize('command', ['run', 'analyze'])
@pytest.mark.parametrize('mapping, field', DROPPED_SETTINGS,
                         ids=[f'{m["kind"]}-{f}' for m, f in DROPPED_SETTINGS])
def test_cli_rejects_a_setting_its_kind_would_drop(tmp_path, capsys,
                                                   trial_calls, command,
                                                   mapping, field):
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps(mapping))
    # a run's two directory levels, or the CSV analyze writes
    out = tmp_path / ('out/run' if command == 'run' else 'analyze.csv')
    assert cli.main([command, '--config', str(cfg), '--out', str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ''
    assert err.startswith('error: ') and err.count('\n') == 1, err
    assert mapping['kind'] in err and field in err, err
    assert trial_calls == []
    assert os.listdir(tmp_path) == ['cfg.json']


# A string or a number where a list belongs, for each list field of
# its kind: each is named as such, not read entry by entry
SCALAR_LISTS = [
    ({'kind': 'verify_mse', 'arrays': 'mra:10'}, 'arrays'),
    ({'kind': 'verify_mse', 'snr_db': 5}, 'snr_db'),
    ({'kind': 'verify_mse', 'n_snapshots': 100}, 'n_snapshots'),
    ({'kind': 'verify_mse', 'doas_deg': '10'}, 'doas_deg'),
    ({'kind': 'resolution', 'delta_deg': 1.0}, 'delta_deg'),
    ({'kind': 'efficiency', 'k_sources': 3}, 'k_sources'),
    ({'kind': 'scaling', 'q_range': 3}, 'q_range'),
    ({'kind': 'scaling', 'families': 'mra'}, 'families'),
    ({'kind': 'scaling', 'k_modes': 'm'}, 'k_modes'),
]


@pytest.mark.parametrize('mapping, field', SCALAR_LISTS,
                         ids=[f for _, f in SCALAR_LISTS])
def test_cli_names_a_scalar_where_a_list_belongs(tmp_path, capsys,
                                                 trial_calls, mapping, field):
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps(mapping))
    out = tmp_path / 'out' / 'run'
    assert cli.main(['run', '--config', str(cfg), '--out', str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ''
    assert err == f'error: {field} must be a list, got {mapping[field]!r}\n'
    assert trial_calls == []
    assert os.listdir(tmp_path) == ['cfg.json']


# Values refused before any trial: an empty source list, an N past the
# Wishart draw's int64 shapes, and arrays past geometry.MAX_SENSORS,
# whose lag matrix alone would take terabytes
REFUSED_VALUES = [
    ('run', {'kind': 'verify_mse', 'doas_deg': []},
     'doas_deg must not be an empty list'),
    ('analyze', {'kind': 'efficiency', 'doas_deg': []},
     'doas_deg must not be an empty list'),
    ('run', {'kind': 'verify_mse', 'n_snapshots': [10 ** 30], 'n_trials': 2},
     f'each n_snapshots entry must be an integer in [1, {2 ** 62}], '
     f'got {10 ** 30}'),
    # no family has an array of this size under the cap
    ('run', {'kind': 'scaling', 'q_range': [1000000]},
     "scaling has no point: no array of families ['coprime', 'nested', "
     "'mra'] has a size in [1000000]"),
    ('analyze', {'kind': 'scaling', 'families': ['nested'],
                 'q_range': [1000000]},
     "scaling has no point: no array of families ['nested'] has a size "
     "in [1000000]"),
    ('run', {'kind': 'verify_mse', 'arrays': ['ula:1000000'], 'n_trials': 2},
     "arrays: bad array spec 'ula:1000000': an array takes at most 1024 "
     "sensors, got 1000000"),
]


@pytest.mark.parametrize('command, mapping, message', REFUSED_VALUES,
                         ids=['doas_deg-run', 'doas_deg-analyze',
                              'n_snapshots', 'q_range-run', 'q_range-analyze',
                              'arrays'])
def test_cli_refuses_a_value_past_its_field_rule(tmp_path, capsys,
                                                 trial_calls, command,
                                                 mapping, message):
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps(mapping))
    out = tmp_path / ('out/run' if command == 'run' else 'analyze.csv')
    assert cli.main([command, '--config', str(cfg), '--out', str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ''
    assert err == f'error: {message}\n'
    assert trial_calls == []
    assert os.listdir(tmp_path) == ['cfg.json']


@pytest.mark.parametrize('command', ['run', 'analyze'])
def test_cli_rejects_a_scaling_sweep_with_no_point(tmp_path, capsys,
                                                   trial_calls, command):
    # no MRA has two sensors, so not one point is left: a header-only
    # table and a plot script with no series are not written
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'scaling', 'families': ['mra'],
                               'q_range': [2]}))
    out = tmp_path / ('out/run' if command == 'run' else 'analyze.csv')
    assert cli.main([command, '--config', str(cfg), '--out', str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ''
    assert err.startswith('error: scaling has no point') \
        and err.count('\n') == 1, err
    assert trial_calls == []
    assert os.listdir(tmp_path) == ['cfg.json']


def test_cli_run_removes_its_directories_on_a_numerical_failure(tmp_path,
                                                                capsys):
    # the predicted threshold fails half a degree off endfire: exit 3,
    # and the run takes away the two directory levels it made
    out_dir = tmp_path / 'out' / 'run'
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({
        'kind': 'resolution', 'arrays': ['ula:3'], 'center_deg': 89.5,
        'delta_deg': [0.5], 'snr_db': [0.0], 'n_snapshots': [500],
        'n_trials': 2}))
    assert cli.main(['run', '--config', str(cfg), '--out',
                     str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == '' and 'nonpositive curvature' in err
    assert not out_dir.parent.exists()


@pytest.mark.parametrize('threads', [0, -1, 10 ** 6])
def test_cli_run_bounds_threads_before_anything_starts(tmp_path, capsys,
                                                       monkeypatch,
                                                       trial_calls, threads):
    # a count outside 1..cpu_count exits 2 with no directory made and no
    # worker pool constructed, so no process starts
    def refuse(*args, **kwargs):
        raise AssertionError('a worker pool was constructed')

    monkeypatch.setattr(harness, 'ProcessPoolExecutor', refuse)
    out_dir = tmp_path / 'out'
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'verify_mse', 'arrays': ['coprime:2'],
                               'snr_db': [0.0], 'n_snapshots': [100],
                               'n_trials': 2}))
    assert cli.main(['run', '--config', str(cfg), '--out', str(out_dir),
                     '--threads', str(threads)]) == 2
    out, err = capsys.readouterr()
    assert out == ''
    assert err.startswith('error: --threads') and err.count('\n') == 1, err
    assert trial_calls == []
    assert not out_dir.exists()


def test_cli_unwritable_output_is_an_error_before_any_trial(tmp_path, capsys,
                                                            trial_calls):
    # a path under a regular file cannot be created: one error line and
    # exit 2, not a traceback, with nothing on stdout before it, and run
    # gives up before its sweep
    blocker = tmp_path / 'file'
    blocker.write_text('')
    scenario = tmp_path / 'scenario.json'
    scenario.write_text(json.dumps({'doas_deg': [10.0], 'snr_db': 0.0}))
    cfg = tmp_path / 'cfg.json'
    cfg.write_text(json.dumps({'kind': 'verify_mse', 'arrays': ['coprime:2'],
                               'snr_db': [0.0], 'n_snapshots': [100],
                               'n_trials': 2}))
    for argv in (['geom', '--array', 'coprime:2',
                  '--f-csv', str(blocker / 'f.csv')],
                 ['estimate', '--array', 'coprime:2', '--scenario',
                  str(scenario), '--out', str(blocker / 'x.csv')],
                 ['run', '--config', str(cfg), '--out', str(blocker / 'out')]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == '', argv
        assert err.startswith('error: ') and err.count('\n') == 1, err
        assert str(blocker) in err
        if argv[0] != 'run':
            assert err.startswith(f'error: failed writing {argv[-1]}: '), err
    assert trial_calls == []


def test_cli_version_and_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(['--version'])
    assert exc.value.code == 0
    assert 'coarray-lab' in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
