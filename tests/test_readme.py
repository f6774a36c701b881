"""The README's Quick-start block runs against the current API, its
list of config fields per kind is the harness's table, and its lists of
config field rules and of scenario keys are the field and key tables."""

import pathlib
import re

from coarray_lab import cli, geometry, harness

README = pathlib.Path(__file__).resolve().parents[1] / 'README.md'


def test_quick_start_block_runs():
    quick = README.read_text(encoding='utf-8').split('## Quick start', 1)[1]
    block = re.search(r'```python\n(.*?)```', quick, re.DOTALL).group(1)
    names = {'__name__': '__readme__'}
    exec(compile(block, f'{README.name} (Quick start)', 'exec'), names)
    assert names['est'].resolved
    assert names['spectrum'].shape == names['grid'].shape


def test_config_kinds_list_the_fields_of_the_table():
    text = README.read_text(encoding='utf-8')
    section = text.split('Config kinds, ', 1)[1].split('\n\nA config', 1)[0]
    head, *bullets = section.split('\n- ')
    assert re.findall(r'`(\w+)`', head) == list(harness._COMMON)
    listed = {}
    for bullet in bullets:
        kind = re.match(r'`(\w+)`', bullet).group(1)
        # the fields follow the kind's parenthesised description
        listed[kind] = re.findall(
            r'`(\w+)`', re.split(r'\):\s', bullet)[-1])
    assert listed == {kind: [f for f in fields if f not in harness._COMMON]
                      for kind, (_, _, fields) in harness._TABLES.items()}


def test_field_rules_are_the_field_table():
    text = README.read_text(encoding='utf-8')
    section = text.split('with one error line that names the\nfield:\n\n',
                         1)[1].split('\n\n', 1)[0]
    rules = {}
    for bullet in section[2:].split('\n- '):
        name, shape, rule = re.match(
            r'`(\w+)`(?: \(([\w ]+)\))?: (.*)', bullet, re.DOTALL).groups()
        rules[name] = (shape or 'value', ' '.join(rule.split()))
    assert list(rules) == list(harness._FIELDS)
    for name, (shape, rule) in harness._FIELDS.items():
        assert rules[name][0] == shape.replace('None', 'null'), name
        assert rules[name][1].startswith(rule.what), name
    assert f'at most {geometry.MAX_SENSORS} sensors' in rules['arrays'][1]


def test_scenario_keys_are_the_key_table():
    text = README.read_text(encoding='utf-8')
    section = text.split("before any snapshot is drawn:\n\n", 1)[1].split(
        '\n\n', 1)[0]
    keys = {}
    for bullet in section[2:].split('\n- '):
        name, shape, rule, need = re.match(
            r'`(\w+)`(?: \(([\w ]+)\))?: (.*?); (required|optional)\.',
            bullet, re.DOTALL).groups()
        keys[name] = (shape or 'value', ' '.join(rule.split()), need)
    assert keys == {name: (shape, rule.what,
                           'required' if required else 'optional')
                    for name, (required, shape, rule)
                    in cli._SCENARIO_KEYS.items()}
    assert list(keys) == list(cli._SCENARIO_KEYS)
