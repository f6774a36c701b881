"""Set-up probe: everything a fresh process does before its first sweep point.

It imports coarray-lab and loads the given config files, which
validates them. ``run.py`` starts it in a new interpreter with
``PYTHONPATH`` pointing at the checkout's ``src`` and times it from
outside:

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG.json [...]
"""

import sys

from coarray_lab import cli

for path in sys.argv[1:]:
    cli.load_config(path)
