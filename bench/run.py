"""coarray-lab benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a source checkout (no install needed; the package
is imported from ``src``):

    python3 bench/run.py --workload mc_verify --seed 1 --seconds 35 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process; with ``--trace 1`` that prints every row of the
ROADMAP Baseline table.

Workloads (see ``workloads.py`` for why each exists): ``mc_verify``,
``mc_resolution`` and ``closed_form``. A pass runs the workload once
through the user path, ``coarray-lab run`` via ``cli.main``, in this
process with one thread. Passes repeat for ``--seconds``; every pass's
CSVs and manifest are checked and must be byte-identical.

``--trace 0`` reports the end-to-end metrics: ``wall_scaled_s`` (median
pass), ``setup_s`` (median of fresh-interpreter probes: import, config
load and validation) and ``peak_rss_mb``. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics: calls and
self-time share per span, ratios taken at span boundaries, the tracing
overhead, and the per-call means of the ROADMAP Baseline rows.

Reference scaling: the speed of a shared host drifts by tens of percent
over minutes, and CPU time drifts with it. So a fixed reference loop
(small numpy eigensystems and products, independent of coarray-lab) is
timed before and after every set-up probe and every pass, and between
the parts of a pass, and the end-to-end times in the JSON are scaled to
reference speed::

    scaled = measured * REFERENCE_S / mean(references around and inside)

A program change moves a scaled time as much as the raw one; host drift
moves the reference too and cancels. Raw times are printed as well.

Human-readable lines go to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``attempted`` and ``failed`` count sweep points over all
passes. The workload seed reaches the program only as the master seed
(``--seed``) of the Monte Carlo configs; ``closed_form`` has no
randomness and ignores it.
"""

import os

# One BLAS and OpenMP thread here and in the set-up probes, so a
# single-process load stays single-threaded on any core count. Set
# before numpy is imported.
PINNED_THREADS = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS',
                  'MKL_NUM_THREADS', 'BLIS_NUM_THREADS')
for _var in PINNED_THREADS:
    os.environ[_var] = '1'

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, 'src')
# Relative, so the manifests (which record the output directory) and
# their digest do not depend on where the checkout lives.
OUT = '.bench_out'

SETUP_PROBES = 7
# Nominal duration of :func:`reference_seconds`; the scale of the
# reported times.
REFERENCE_S = 0.25
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Benchmark-level spans around the parts of closed_form.
PART_SPANS = tuple(f'closed_form.{p.label}'
                   for p in workloads.WORKLOADS['closed_form'])
SPANS = tuple(f'{mod}.{fn}' for mod, fns in tracing.LAYER_FUNCTIONS.items()
              for fn in fns) + PART_SPANS

# ROADMAP Baseline rows and the span whose per-call mean gives each.
BASELINE_ROWS = (
    ('simulate', 'model.simulate_snapshots'),
    ('sample covariance', 'model.sample_covariance'),
    ('F·r', 'model.virtual_observation'),
    ('SS augment', 'estimator.augment_spatial_smoothing'),
    ('eigh', 'estimator.noise_subspace'),
    ('estimate_doas', 'estimator.estimate_doas'),
    ('selection_matrix', 'geometry.selection_matrix'),
    ('error_terms', 'analysis.error_terms'),
    ('analytical_mse', 'analysis.analytical_mse'),
    ('crb', 'analysis.crb'),
    ('resolution_threshold', 'analysis.resolution_threshold'),
)

# Per-layer metrics besides '<span>.calls' and '<span>.self_share':
# (name, unit, better).
EXTRA_LAYER_METRICS = (
    ('estimator.resolved_frac', 'ratio', 'higher'),
    ('estimator.refined_frac', 'ratio', 'higher'),
    ('geometry.difference_coarray.hit_ratio', 'ratio', 'higher'),
    ('harness.failed_trial_frac', 'ratio', 'lower'),
    ('harness.emit_outputs.bytes', 'bytes', 'lower'),
    ('trace.overhead_s', 's', 'lower'),
)


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in output order."""
    spec = []
    for span in SPANS:
        spec.append((f'{span}.calls', 'count', 'lower'))
        spec.append((f'{span}.self_share', '%', 'lower'))
    return spec + list(EXTRA_LAYER_METRICS)


def import_package():
    """Import coarray-lab from the checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, 'coarray_lab', '__init__.py')
    if not os.path.isfile(init):
        raise SystemExit(f'error: {init} not found; run from the root of '
                         'a coarray-lab source checkout')
    sys.path.insert(0, SRC)
    import coarray_lab
    from coarray_lab import analysis, cli, estimator, geometry, harness, model
    mods = {'geometry': geometry, 'model': model, 'estimator': estimator,
            'analysis': analysis, 'harness': harness, 'cli': cli}
    return coarray_lab, mods


def machine_facts():
    """Facts that explain a measurement: CPUs, versions, BLAS, load."""
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open('/proc/cpuinfo', encoding='utf-8') as fh:
            cpu = next((line.split(':', 1)[1].strip() for line in fh
                        if line.startswith('model name')), cpu)
    blas = 'unknown'
    with contextlib.suppress(Exception):
        info = np.show_config(mode='dicts')['Build Dependencies']['blas']
        conf = ' '.join(info.get('openblas configuration', '').split())
        blas = f"{info.get('name')} {info.get('version')} ({conf})"
    return {
        'nproc': os.cpu_count(),
        'cpu': cpu,
        'python': platform.python_version(),
        'numpy': np.__version__,
        'blas': blas,
        'load_1min': round(os.getloadavg()[0], 2),
        'pinned': ' '.join(f'{v}={os.environ[v]}' for v in PINNED_THREADS),
    }


def reference_seconds():
    """Wall time of a fixed loop of the kind of numpy work the program does."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    h = a @ a.conj().T
    lags = np.arange(24)
    start = time.perf_counter()
    for i in range(1500):
        en = np.linalg.eigh(h)[1][:, :12]
        e = en.conj().T @ np.exp(1e-3j * i * lags)
        float(np.real(e @ e.conj()))
    return time.perf_counter() - start


def scale(measured, refs):
    """A measured time at reference speed, given the references around it."""
    return measured * REFERENCE_S * len(refs) / sum(refs)


def measure_setup(config_paths):
    """Raw and scaled times of fresh interpreters loading the configs.

    The first probe only warms the file cache and bytecode and is
    dropped. No timeout: with one, ``subprocess`` polls the child at
    up to 50 ms intervals and the times come out in 50 ms steps.
    """
    path = os.environ.get('PYTHONPATH')
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, 'setup_probe.py'),
           *config_paths]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
    raw, scaled = [], []
    ref = reference_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        ref_after = reference_seconds()
        scaled.append(scale(raw[-1], (ref, ref_after)))
        ref = ref_after
    return raw, scaled


def read_table(path):
    """A CSV written by the program as parsed rows; empty when missing."""
    try:
        with open(path, encoding='utf-8', newline='') as fh:
            reader = csv.reader(fh)
            header = next(reader)
            return workloads.parse_rows(header, list(reader))
    except (OSError, StopIteration):
        return []


def digest_tree(top):
    """SHA-256 over every file's relative path and bytes under ``top``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode('utf-8') + b'\0')
            with open(path, 'rb') as fh:
                h.update(fh.read())
            h.update(b'\0')
    return h.hexdigest()


def clear_caches(mods):
    """Empty the package's caches, as a fresh ``coarray-lab run`` starts.

    Clears every ``functools.lru_cache`` of the package modules and the
    estimator's grid cache, so each pass pays what a user's run pays and
    cache counts repeat from pass to pass.
    """
    for mod in mods.values():
        for value in vars(mod).values():
            if callable(getattr(value, 'cache_clear', None)):
                value.cache_clear()
    grid_cache = getattr(mods['estimator'], '_GRID_CACHE', None)
    if isinstance(grid_cache, dict):
        grid_cache.clear()


@dataclasses.dataclass
class PassResult:
    """Wall time, verdict, output digest and part errors of one pass.

    ``wall`` sums the parts' times; ``inner_refs`` are the reference
    times between parts. ``scaled`` is the wall time at reference
    speed, set once the reference after the pass is timed.
    """

    wall: float
    verdict: workloads.Verdict
    digest: str
    errors: list
    inner_refs: list
    scaled: float = float('nan')


class Workload:
    """One workload bound to a seed, its config files and output dir."""

    def __init__(self, name, seed, package, mods):
        self.name = name
        self.seed = seed
        self.package = package
        self.mods = mods
        self.parts = workloads.WORKLOADS[name]
        self.dir = os.path.join(OUT, name)
        self.pass_dir = os.path.join(self.dir, 'pass')
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, 'config'))
        self.config_paths = {}
        for part in self.parts:
            if part.config is not None:
                path = os.path.join(self.dir, 'config', f'{part.label}.json')
                with open(path, 'w', encoding='utf-8') as fh:
                    json.dump(part.config, fh, indent=1)
                self.config_paths[part.label] = path

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT)

    def _run_part(self, part):
        """Run one part; returns threshold rows or None, and an error."""
        if part.config is None:
            try:
                return workloads.run_thresholds(self.mods['geometry'],
                                                self.mods['analysis']), None
            except Exception as exc:  # a failed part fails its points
                return None, repr(exc)
        argv = ['run', '--config', self.config_paths[part.label],
                '--out', os.path.join(self.pass_dir, part.label),
                '--threads', '1']
        if part.seeded:
            argv += ['--seed', str(self.seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.mods['cli'].main(argv)
        except Exception as exc:  # a failed part fails its points
            return None, repr(exc)
        if code != 0:
            return None, f'exit code {code}: {stderr.getvalue().strip()}'
        return None, None

    def run_pass(self, tracer=None):
        """One timed pass, then its checks and output digest."""
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        os.makedirs(self.pass_dir)
        clear_caches(self.mods)
        span = lambda name: contextlib.nullcontext()  # noqa: E731
        if tracer is not None:
            tracer.reset()
            tracer.patch(self.package, self.mods)
            span = tracer.span
        gc.collect()
        results, inner_refs, wall = {}, [], 0.0
        try:
            for i, part in enumerate(self.parts):
                if i:
                    inner_refs.append(reference_seconds())
                start = time.perf_counter()
                with span(f'{self.name}.{part.label}'):
                    results[part.label] = self._run_part(part)
                wall += time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.close()

        verdict = workloads.Verdict()
        errors = []
        for part in self.parts:
            threshold_rows, error = results[part.label]
            if error:
                errors.append(f'{part.label}: {error}')
            part_dir = os.path.join(self.pass_dir, part.label)
            if part.config is None:
                os.makedirs(part_dir, exist_ok=True)
                with open(os.path.join(part_dir, 'thresholds.csv'), 'w',
                          encoding='utf-8', newline='') as fh:
                    writer = csv.writer(fh, lineterminator='\n')
                    writer.writerow(workloads.THRESHOLD_HEADER)
                    writer.writerows((a, repr(s), n, repr(t)) for a, s, n, t
                                     in threshold_rows or ())
                table = os.path.join(part_dir, 'thresholds.csv')
            else:
                table = os.path.join(part_dir, f"{part.config['kind']}.csv")
            expected = workloads.expected_points(part, self.mods['geometry'])
            verdict.add(workloads.check_part(part, read_table(table),
                                             expected, self.mods['harness']))
        return PassResult(wall, verdict, digest_tree(self.pass_dir), errors,
                          inner_refs)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(values, unit, what):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (f'{med:.6g} {unit}  median of {len(values)} {what} '
            f'(q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, '
            f'max {max(values):.6g})')


def run_passes(work, seconds, tracer=None):
    """Passes while the next one fits in ``seconds``.

    With a tracer, untraced and traced passes alternate. The reference
    loop runs before the first pass, between parts and after each pass.

    Returns:
        ``(untraced, traced)``: a list of :class:`PassResult`, and a
        list of ``(result, span summary, counts, cache_info)`` tuples.
    """
    untraced, traced = [], []
    difference_coarray = work.mods['geometry'].difference_coarray
    start = time.perf_counter()
    ref = reference_seconds()
    while True:
        if tracer is not None and len(traced) < len(untraced):
            result = work.run_pass(tracer)
            traced.append((result, tracing.summarize(tracer.spans),
                           dict(tracer.counts),
                           difference_coarray.cache_info()))
        else:
            result = work.run_pass()
            untraced.append(result)
        ref_after = reference_seconds()
        result.scaled = scale(result.wall,
                              (ref, *result.inner_refs, ref_after))
        ref = ref_after
        enough = (len(untraced) >= MIN_PASSES if tracer is None else
                  len(traced) >= MIN_TRACED_PASSES)
        if (enough and time.perf_counter() - start + result.wall
                + ref * (1 + len(result.inner_refs)) > seconds):
            return untraced, traced


def metric(value, unit):
    return {'value': value, 'unit': unit}


def report_end_to_end(passes, setup):
    v = passes[0].verdict
    scaled = [p.scaled for p in passes]
    print('wall_s            ' + describe([p.wall for p in passes], 's',
                                          'passes'))
    print('wall_scaled_s     ' + describe(scaled, 's', 'passes'))
    if v.trials:
        rates = [p.verdict.trials / p.wall for p in passes]
        print('trials_per_s      ' + describe(rates, '1/s', 'passes')
              + f' [{v.trials} trials per pass]')
    print('setup_raw_s       ' + describe(setup[0], 's', 'probes'))
    print('setup_s           ' + describe(setup[1], 's', 'probes')
          + ' [scaled]')
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f'peak_rss_mb       {rss:.6g} MB  1 sample (this process)')
    return {
        'wall_scaled_s': metric(statistics.median(scaled), 's'),
        'setup_s': metric(statistics.median(setup[1]), 's'),
        'peak_rss_mb': metric(rss, 'MB'),
    }


def report_per_layer(untraced, traced):
    overhead = (statistics.median(r.scaled for r, *_ in traced)
                - statistics.median(p.scaled for p in untraced))
    print(f'trace.overhead_s  {overhead:.6g} s  median traced pass minus '
          f'median untraced pass, scaled ({len(traced)} and '
          f'{len(untraced)} passes)')
    result, summary, counts, cache = traced[0]

    def span_stat(name, index):
        return statistics.median(s.get(name, (0, 0.0, 0.0))[index]
                                 for _, s, _, _ in traced)

    print(f'{"span":40s} {"calls":>8s} {"self_s":>10s} {"share":>7s} '
          f'{"per-call":>10s}')
    metrics = {}
    for name in sorted(set(SPANS) | set(summary)):
        calls = summary.get(name, (0, 0.0, 0.0))[0]
        self_s = span_stat(name, 2)
        share = statistics.median(
            100.0 * s.get(name, (0, 0.0, 0.0))[2] / r.wall
            for r, s, _, _ in traced)
        per_call = span_stat(name, 1) / calls if calls else 0.0
        print(f'{name:40s} {calls:8d} {self_s:10.4f} {share:6.2f}% '
              f'{per_call * 1e3:8.3f}ms')
        if name in SPANS:
            metrics[f'{name}.calls'] = metric(calls, 'count')
            metrics[f'{name}.self_share'] = metric(share, '%')

    print('ROADMAP Baseline rows (per-call mean, inclusive of children):')
    for label, name in BASELINE_ROWS:
        calls = summary.get(name, (0,))[0]
        text = (f'{span_stat(name, 1) / calls * 1e3:.4f} ms over {calls} '
                'calls' if calls else 'not called in this workload')
        print(f'  {label:22s} {text}')

    def ratio(label, num, den):
        value = num / den if den else 0.0
        print(f'{label:40s} {value:.6g}  ({num} of {den})')
        metrics[label] = metric(value, 'ratio')

    ratio('estimator.resolved_frac',
          counts.get('estimator.run_music.resolved', 0),
          summary.get('estimator.run_music', (0,))[0])
    ratio('estimator.refined_frac',
          counts.get('estimator.estimate_doas.refined', 0),
          counts.get('estimator.estimate_doas.angles', 0))
    ratio('geometry.difference_coarray.hit_ratio', cache.hits,
          cache.hits + cache.misses)
    v = result.verdict
    ratio('harness.failed_trial_frac', v.failed_trials, v.estimates)
    out_bytes = counts.get('harness.emit_outputs.bytes', 0)
    print(f'harness.emit_outputs.bytes               {out_bytes}')
    metrics['harness.emit_outputs.bytes'] = metric(out_bytes, 'bytes')
    metrics['trace.overhead_s'] = metric(overhead, 's')
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True,
                        choices=sorted(workloads.WORKLOADS) + ['all'])
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == 'all':
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            '--workload', name, '--seed', str(args.seed),
                            '--seconds', str(args.seconds),
                            '--trace', str(args.trace)], check=True)
        return 0

    package, mods = import_package()
    facts = machine_facts()
    print(f'# coarray-lab benchmark: workload {args.workload}, seed '
          f'{args.seed}, {args.seconds:g} s, trace {args.trace}')
    print('machine: ' + ', '.join(f'{k}={v}' for k, v in facts.items()))

    work = Workload(args.workload, args.seed, package, mods)
    try:
        # Set-up time is an end-to-end metric: probed untraced only.
        setup = (None if args.trace else
                 measure_setup(list(work.config_paths.values())))
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = run_passes(work, args.seconds, tracer)
    finally:
        work.close()

    results = untraced + [r for r, *_ in traced]
    attempted = sum(r.verdict.attempted for r in results)
    failed = sum(r.verdict.failed for r in results)
    digests = {r.digest for r in results}
    deterministic = len(digests) == 1
    # Counts must repeat exactly between passes of the same seed.
    repeats = (len({r.verdict.failed_trials for r in results}) == 1
               and len({tuple(sorted((n, s[0]) for n, s in summary.items()))
                        for _, summary, _, _ in traced}) <= 1
               and len({tuple(sorted(c.items()))
                        for _, _, c, _ in traced}) <= 1)
    correct = failed == 0 and deterministic and repeats

    v = results[0].verdict
    print(f'failed_frac       {failed / attempted:.6g}  ({failed} of '
          f'{attempted} sweep points over {len(results)} passes)')
    if v.estimates:
        print(f'failed_trial_frac {v.failed_trials / v.estimates:.6g}  '
              f'({v.failed_trials} of {v.estimates} trial estimates per pass)')
    print(f'output digest     sha256:{sorted(digests)[0]}  '
          f'({len(results)} passes, identical: {deterministic})')
    print(f'counts repeat     {repeats}')
    for note in sorted({n for r in results for n in r.verdict.notes})[:20]:
        print(f'check failed: {note}')
    for error in sorted({e for r in results for e in r.errors})[:20]:
        print(f'part failed: {error}')

    if args.trace:
        metrics = report_per_layer(untraced, traced)
    else:
        metrics = report_end_to_end(untraced, setup)
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
