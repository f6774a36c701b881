"""Shared fixtures: empty caches and acceptance verdict reporting.

Every test starts with the package's ``functools.lru_cache`` memos
empty, so that no test reads an entry that another built, such as a
threshold scan from a stand-in MSE builder.

The acceptance tests each report one PASS/FAIL line with measured
margins. Captured stdout only surfaces on failure, so the lines are
collected on the pytest config and replayed in the terminal summary,
where they are visible in any run mode.
"""

import re
import sys

import pytest


@pytest.fixture(autouse=True)
def clear_package_caches():
    """Empty every ``lru_cache`` of the package's modules, before and
    after the test."""
    def clear():
        for name, mod in list(sys.modules.items()):
            if name == 'coarray_lab' or name.startswith('coarray_lab.'):
                for value in vars(mod).values():
                    if callable(getattr(value, 'cache_clear', None)):
                        value.cache_clear()

    clear()
    yield
    clear()


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance_report(request):
    def record(criterion, ok, detail):
        status = 'PASS' if ok else 'FAIL'
        line = f'criterion {criterion} {status}: {detail}'
        request.config._acceptance_lines.append(line)
        print(line, flush=True)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    lines = list(getattr(terminalreporter.config, '_acceptance_lines', []))
    reported = {line.split()[1] for line in lines}
    crashed = (terminalreporter.stats.get('failed', [])
               + terminalreporter.stats.get('error', []))
    for rep in crashed:
        found = re.search(r'test_criterion_(\d+)', rep.nodeid)
        if found and found.group(1) not in reported:
            lines.append(f'criterion {found.group(1)} FAIL: crashed before '
                         f'reporting ({rep.nodeid})')
    if not lines:
        return
    terminalreporter.section('acceptance criteria')
    for line in sorted(lines, key=lambda s: s.split()[1]):
        terminalreporter.write_line(line)
