"""The benchmark's tracer still fits the package.

``bench/tracing.py`` wraps package functions by name and reads the
results of the estimator at span boundaries. A renamed function or a
changed result type would otherwise surface only when a traced
benchmark pass runs. The tracer is loaded from its file as it stands.
"""

import importlib.util
import pathlib

import numpy as np

import coarray_lab
from coarray_lab import analysis, cli, estimator, geometry, harness, model

MODULES = {'geometry': geometry, 'model': model, 'estimator': estimator,
           'analysis': analysis, 'harness': harness, 'cli': cli}


def load_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / 'bench' / 'tracing.py'
    spec = importlib.util.spec_from_file_location('bench_tracing', path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    z = model.virtual_observation(geometry.selection_matrix(co), r_hat)
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
