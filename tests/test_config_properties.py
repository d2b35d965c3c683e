"""Property test of the config schema: a mutated bundled config validates or
raises ConfigError, and validation writes nothing.

Each example takes one ``configs/*.cfg`` and makes one mutation: drop a key
or list item, add an unknown key to an object, or put a wrong-typed,
out-of-range or non-finite value in place of a key or list item. The test
calls ``RunConfig`` in process, which builds the whole plan but simulates
nothing.
"""

import copy
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from memdecide.cli import RunConfig, build_parser
from memdecide.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.cfg"))}
COMMANDS = ("trace", "trial", "sweep", "calibrate")

# Values that no key accepts (only ``comment`` keys, which are ignored) ...
INVALID = [None, {"x": 1}, math.nan, math.inf, -math.inf]
# ... and wrong types or values out of range for some keys but not others.
# 10**400 is an integer too large for a float or for any array size.
OTHER = [True, False, "1", "", [], [1], [[1, 2, 3]], {}, 2.5, -1, 0, -0.5, 1.0, 1.5, 1e300, 10**400]


def _paths(node, prefix=()):
    """Every dict key and list index under ``node``, as key tuples."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items for p in [prefix + (key,), *_paths(child, prefix + (key,))]]


def _get(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(BUNDLED)))
    payload = copy.deepcopy(BUNDLED[name])
    kind = draw(st.sampled_from(["drop", "unknown", "replace"]))
    if kind == "unknown":
        objects = [p for p in [(), *_paths(payload)] if isinstance(_get(payload, p), dict)]
        _get(payload, draw(st.sampled_from(objects)))["no_such_key"] = 1
        return name, True, payload
    path = draw(st.sampled_from(_paths(payload)))
    parent = _get(payload, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
        return name, False, payload
    value = draw(st.sampled_from(INVALID + OTHER))
    parent[path[-1]] = value
    return name, any(value is v for v in INVALID) and "comment" not in path, payload


@given(mutated_configs())
def test_mutated_bundled_config_validates_or_raises_config_error(case):
    name, must_fail, payload = case
    command = next(c for c in COMMANDS if c in BUNDLED[name])
    args = build_parser().parse_args([command, "--config", str(CONFIGS / f"{name}.cfg")])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the bundled out_dir values are relative
        try:
            RunConfig(command, payload, CONFIGS, args)
        except ConfigError:
            pass
        else:
            assert not must_fail, "an invalid value or unknown key was accepted"
        finally:
            os.chdir(cwd)
        assert os.listdir(tmp) == []
