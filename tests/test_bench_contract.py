"""The benchmark's tracer and workloads still fit the package.

``bench/tracing.py`` wraps package functions by name and reads the
results of the estimator at span boundaries, and ``bench/workloads.py``
calls ``analysis.resolution_threshold`` directly, past the CLI. A
renamed function, a changed signature or a changed result type would
otherwise surface only when a benchmark pass runs. Both files are
loaded as they stand.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import coarray_lab
from coarray_lab import (analysis, cli, estimator, geometry, harness, model,
                         reference)

MODULES = {'geometry': geometry, 'model': model, 'estimator': estimator,
           'analysis': analysis, 'harness': harness, 'cli': cli}


def load_bench(name):
    path = pathlib.Path(__file__).resolve().parents[1] / 'bench' / f'{name}.py'
    spec = importlib.util.spec_from_file_location(f'bench_{name}', path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench('tracing')


def test_every_traced_function_resolves():
    tracing = load_tracing()
    traced = set()
    for mod_name, names in tracing.LAYER_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(MODULES[mod_name], name, None)), (
                mod_name, name)
            traced.add(f'{mod_name}.{name}')
    assert set(tracing.OBSERVERS) <= traced


def test_estimator_results_feed_the_observers():
    tracing = load_tracing()
    geom = geometry.coprime(3, 5)
    sc = model.SourceScenario.with_snr(np.deg2rad([-41.0, 17.0]), 3.0)
    co = geometry.difference_coarray(geom)
    r_hat = model.sample_covariance(
        model.simulate_snapshots(geom, sc, 300, seed=4711))
    z = model.virtual_observation(co, r_hat)
    original = estimator.run_music
    tracer = tracing.Tracer()
    tracer.patch(coarray_lab, MODULES)
    try:
        est = estimator.run_music(z, co.mv, 2, method='da')
    finally:
        tracer.close()
    assert estimator.run_music is original
    assert isinstance(est.resolved, bool)
    assert isinstance(est.refined, np.ndarray)
    assert est.refined.dtype == bool
    assert est.refined.shape == est.angles.shape == (2,)
    names = [span[0] for span in tracer.spans]
    assert names.count('estimator.run_music') == 1
    assert names.count('estimator.estimate_doas') == 1
    assert tracer.counts['estimator.run_music.resolved'] == int(est.resolved)
    assert tracer.counts['estimator.estimate_doas.angles'] == 2
    assert (tracer.counts['estimator.estimate_doas.refined']
            == int(est.refined.sum()))


def test_trial_path_feeds_the_tracer():
    # the benchmark's own check of the trial path: run_trials calls the
    # estimator through the harness binding, once per (trial, method)
    tracing = load_tracing()
    original = estimator.run_music
    tracer = tracing.Tracer()
    tracer.patch(coarray_lab, MODULES)
    try:
        assert harness.run_music is estimator.run_music is not original
        est = harness.run_trials(
            geometry.coprime(2), model.SourceScenario.with_snr((0.1,), 10.0),
            50, ('ss',), 1, 0, 2, 0.01)
    finally:
        tracer.close()
    assert harness.run_music is estimator.run_music is original
    summary = tracing.summarize(tracer.spans)
    assert summary['estimator.run_music'][0] == 2
    assert summary['estimator.noise_subspace'][0] == 2
    assert summary['harness.run_trials'][0] == 1
    assert tracer.counts['estimator.run_music.resolved'] == 2
    assert est.shape == (1, 2, 1)
    assert np.all(np.isfinite(est))


def test_threshold_part_matches_the_reference_route():
    # the closed_form workload's direct threshold calls, as the
    # benchmark makes them
    workloads = load_bench('workloads')
    rows = workloads.run_thresholds(geometry, analysis)
    assert len(rows) == 45
    want = []
    for spec in workloads.ARRAYS:
        geom = harness._parse_array(spec)
        for snr in workloads.THRESHOLD_SNR_DB:
            for n in workloads.THRESHOLD_N:
                thr = reference.resolution_threshold(
                    geom, n, center=np.deg2rad(workloads.THRESHOLD_CENTER_DEG),
                    power=1.0, noise_power=10.0 ** (-snr / 10.0))
                want.append((geom.name, snr, n, float(np.rad2deg(thr))))
    assert rows == want
    assert all(np.isfinite(row[-1]) for row in rows)
