"""Tests of the benchmark itself; kept out of the package's test suite.

    python3 -m pytest -q bench/selftest.py
"""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(REPO, 'src'))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

VERIFY_HEADER = ('array', 'method', 'snr_db', 'n_snapshots', 'trials',
                 'mse_an_rad2', 'mse_em_rad2', 'rel_err', 'mse_em_se_rad2',
                 'failed_trials')


def _verify_rows(edit=None):
    """Two sweep points, DA and SS each, that pass the check."""
    raw = []
    for n in ('250', '1000'):
        for method in ('da', 'ss'):
            raw.append(['mra(10)', method, '0.0', n, '30', '1e-4',
                        '1.05e-4', '0.0476', '5e-6', '0'])
    if edit:
        edit(raw)
    return workloads.parse_rows(VERIFY_HEADER, raw)


def _failed_frac(verdict):
    return verdict.failed / verdict.attempted


def test_clean_verify_table_passes():
    v = workloads.check_verify(_verify_rows(), expected=2)
    assert (v.attempted, v.failed, v.trials, v.estimates) == (2, 0, 60, 120)


def test_nan_rel_err_counts_as_failed_point():
    def nan_rel_err(raw):
        raw[0][7] = 'nan'
    v = workloads.check_verify(_verify_rows(nan_rel_err), expected=2)
    assert v.failed == 1
    assert _failed_frac(v) == 0.5


def test_da_ss_gap_counts_as_failed_point():
    def split_methods(raw):
        raw[2][6] = '1.2e-4'   # DA of the second point, 14% above SS
        raw[2][8] = '1e-5'     # still consistent with the closed form
    v = workloads.check_verify(_verify_rows(split_methods), expected=2)
    assert v.failed == 1
    assert _failed_frac(v) == 0.5


def test_missing_rows_count_as_failed_points():
    v = workloads.check_verify(_verify_rows()[:2], expected=2)
    assert v.failed == 1
    assert workloads.check_efficiency([], expected=984).failed == 984


def test_mse_tolerance_widens_with_standard_error():
    def far(raw):
        raw[0][6] = raw[1][6] = '2e-4'
    assert workloads.check_verify(_verify_rows(far), expected=2).failed == 1

    def far_but_noisy(raw):
        raw[0][6] = raw[1][6] = '2e-4'
        raw[0][8] = raw[1][8] = '4e-5'
    assert workloads.check_verify(_verify_rows(far_but_noisy),
                                  expected=2).failed == 0


def _resolution_rows(probs):
    deltas = [0.3 + 0.15 * i for i in range(19)]
    header = ('array', 'method', 'snr_db', 'n_snapshots', 'delta_deg',
              'trials', 'p_resolve', 'p_resolve_se',
              'predicted_threshold_deg')
    raw = [['mra(10)', 'ss', '0.0', '500', repr(d), '100', repr(p), '0.0',
            '0.8'] for d, p in zip(deltas, probs)]
    return workloads.parse_rows(header, raw)


def test_resolution_curve_shape():
    from coarray_lab.harness import fifty_percent_crossing
    good = [0.0] * 4 + [0.2, 0.6, 0.9] + [1.0] * 12   # crossing ~1.04 deg
    v = workloads.check_resolution(_resolution_rows(good), 19,
                                   fifty_percent_crossing)
    assert (v.failed, v.trials, v.failed_trials) == (0, 1900, 530)
    early = [0.5] + good[1:]
    v = workloads.check_resolution(_resolution_rows(early), 19,
                                   fifty_percent_crossing)
    assert v.failed == 19
    late = [0.0] * 16 + [0.6, 1.0, 1.0]                # crossing ~2.7 deg
    v = workloads.check_resolution(_resolution_rows(late), 19,
                                   fifty_percent_crossing)
    assert v.failed == 19


def test_self_time_of_nested_spans():
    spans = [
        ['pass', 0.0, 10.0, -1],
        ['outer', 1.0, 4.0, 0],
        ['inner', 2.0, 3.0, 1],
        ['outer', 5.0, 9.0, 0],
        ['inner', 5.5, 6.0, 3],
        ['inner', 7.0, 8.5, 3],
    ]
    out = tracing.summarize(spans)
    assert out['pass'] == (1, 10.0, 3.0)
    assert out['outer'] == (2, 7.0, 4.0)
    assert out['inner'] == (3, 3.0, 3.0)
    # self times partition the root span
    assert math.isclose(sum(s for _, _, s in out.values()), 10.0)


def test_tracer_wraps_every_lookup_site_and_restores():
    package, mods = run.import_package()
    harness, estimator, analysis = (mods['harness'], mods['estimator'],
                                    mods['analysis'])
    original = estimator.run_music
    tracer = tracing.Tracer()
    tracer.patch(package, mods)
    try:
        assert harness.run_music is estimator.run_music is not original
        assert analysis.selection_matrix is mods['geometry'].selection_matrix
        assert mods['cli'].run is harness.run
        geom = mods['geometry'].coprime(2)
        scenario = mods['model'].SourceScenario.with_snr((0.1,), 10.0)
        harness.run_trials(geom, scenario, 50, ('ss',), 1, 0, 2, 0.01)
    finally:
        tracer.close()
    assert harness.run_music is estimator.run_music is original
    summary = tracing.summarize(tracer.spans)
    assert summary['estimator.run_music'][0] == 2
    assert summary['estimator.noise_subspace'][0] == 2
    assert summary['harness.run_trials'][0] == 1
    assert tracer.counts['estimator.run_music.resolved'] == 2


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(REPO, 'BENCHMARK.json'), encoding='utf-8') as fh:
        spec = json.load(fh)
    assert [w['name'] for w in spec['workloads']] == list(workloads.WORKLOADS)
    assert [m['name'] for m in spec['end_to_end']] == [
        'wall_scaled_s', 'setup_s', 'peak_rss_mb']
    assert [(m['name'], m['unit'], m['better'])
            for m in spec['per_layer']] == run.per_layer_spec()


@pytest.mark.parametrize('part', [p for parts in workloads.WORKLOADS.values()
                                  for p in parts])
def test_expected_points(part):
    _, mods = run.import_package()
    expected = {'verify': 12, 'resolution': 57, 'efficiency': 984,
                'scaling': 80, 'thresholds': 45}
    assert workloads.expected_points(part, mods['geometry']) == \
        expected[part.label]
