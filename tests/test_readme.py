"""The README's Quick-start block runs against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / 'README.md'


def test_quick_start_block_runs():
    quick = README.read_text(encoding='utf-8').split('## Quick start', 1)[1]
    block = re.search(r'```python\n(.*?)```', quick, re.DOTALL).group(1)
    names = {'__name__': '__readme__'}
    exec(compile(block, f'{README.name} (Quick start)', 'exec'), names)
    assert names['est'].resolved
    assert names['spectrum'].shape == names['grid'].shape
