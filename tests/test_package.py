"""The package root publishes each public module's names exactly once."""

import coarray_lab
from coarray_lab import (analysis, cli, estimator, geometry, harness, model,
                         reference)

PUBLIC = (geometry, model, estimator, analysis, harness)


def test_root_all_is_the_modules_all():
    expected = ['__version__'] + [name for module in PUBLIC
                                  for name in module.__all__]
    assert coarray_lab.__all__ == expected
    # A name in two modules would be shadowed by the later star import.
    assert len(set(expected)) == len(expected)


def test_root_names_are_the_modules_objects():
    for module in PUBLIC:
        for name in module.__all__:
            assert getattr(coarray_lab, name) is getattr(module, name), name


def test_reference_and_cli_stay_out_of_the_root():
    for name in reference.__all__:
        root = getattr(coarray_lab, name, None)
        assert root is not getattr(reference, name), name
    cli_names = [name for name, value in vars(cli).items()
                 if not name.startswith('_')
                 and getattr(value, '__module__', None) == cli.__name__]
    assert cli_names
    for name in cli_names:
        assert not hasattr(coarray_lab, name), name
