"""Spans around the package's public functions, recorded from outside.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in the same list, or -1 at the top. Spans are kept in
memory and summarized when a pass ends.

Functions are wrapped where they are looked up, not only where they are
defined: ``harness`` binds ``run_music`` at import time, ``analysis``
binds ``selection_matrix`` and friends, and ``cli`` binds ``run``,
``emit_outputs`` and ``load_config``. :meth:`Tracer.patch` replaces
every module attribute that *is* the original function, so calls along
either path are seen. Spans recorded in worker processes are lost, so
traced passes run with one thread.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter
from time import perf_counter

# (defining module, function) per span; each span is named
# '<module>.<function>'.
LAYER_FUNCTIONS = {
    'geometry': ('difference_coarray', 'selection_matrix'),
    'model': ('simulate_snapshots', 'sample_covariance',
              'virtual_observation', 'true_covariance'),
    'estimator': ('run_music', 'augment_direct',
                  'augment_spatial_smoothing', 'noise_subspace',
                  'estimate_doas'),
    'analysis': ('error_terms', 'analytical_mse', 'crb',
                 'resolution_threshold'),
    'harness': ('load_config', 'run', 'run_trials', 'emit_outputs'),
    'cli': ('main',),
}


def _observe_run_music(counts, est):
    counts['estimator.run_music.resolved'] += bool(est.resolved)


def _observe_estimate_doas(counts, est):
    counts['estimator.estimate_doas.angles'] += len(est.refined)
    counts['estimator.estimate_doas.refined'] += int(est.refined.sum())


def _observe_emit_outputs(counts, paths):
    counts['harness.emit_outputs.bytes'] += sum(
        os.path.getsize(p) for p in paths)


# Counts taken at a span boundary from the function's return value.
OBSERVERS = {
    'estimator.run_music': _observe_run_music,
    'estimator.estimate_doas': _observe_estimate_doas,
    'harness.emit_outputs': _observe_emit_outputs,
}


class Tracer:
    """Records spans and boundary counts; undoes its patches on close."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def reset(self):
        """Drop recorded spans and counts (patches stay in place)."""
        self.spans.clear()
        self.counts.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of benchmark code."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        """``fn`` with a span named ``name`` around each call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, out)
            return out

        return traced

    def patch(self, package, modules):
        """Wrap every function of :data:`LAYER_FUNCTIONS` at its lookup sites.

        Args:
            package: The imported top-level package.
            modules: Mapping from short module name to module object;
                every module in it is searched for bindings.
        """
        sites = [package] + list(modules.values())
        for mod_name, functions in LAYER_FUNCTIONS.items():
            for fn_name in functions:
                original = getattr(modules[mod_name], fn_name)
                wrapped = self.wrap(original, f'{mod_name}.{fn_name}')
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapped)
                            self._undo.append((site, attr, original))

    def close(self):
        """Restore every patched attribute."""
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)


def summarize(spans):
    """Per-name calls, total time and self time of a span list.

    A span's self time is its duration minus the durations of its
    direct children, which must lie inside it.

    Returns:
        Dict mapping span name to ``(calls, total_s, self_s)``.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total, self_time = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start),
                     self_time + (end - start) - child[i])
    return out
