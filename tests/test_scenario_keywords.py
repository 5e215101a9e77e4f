"""Every keyword of a registered scenario builder is read in its body.

A builder's keyword arguments are its ``scenario.*`` config keys, so a
keyword the body never reads is a config knob that does nothing.  This
parses each builder's source with ``ast`` and collects the names its
body loads, nested functions included; a keyword missing from that set
fails here.
"""

import ast
import inspect
import textwrap

import pytest

import modmhd.scenarios as scenarios
from modmhd import SCENARIO_DEFAULTS


def _unread_keywords(source: str) -> list[str]:
    (fn,) = ast.parse(textwrap.dedent(source)).body
    loaded = {node.id for stmt in fn.body for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [arg.arg for arg in fn.args.args + fn.args.kwonlyargs
            if arg.arg not in loaded]


def test_scan_sees_loads_in_the_body_only():
    source = ("def build(grid, b0=1.0, mode=1, delta=mode):\n"
              "    b0 = 2.0\n"
              "    def make(t):\n"
              "        return grid, t\n"
              "    return make\n")
    assert _unread_keywords(source) == ["b0", "mode", "delta"]


@pytest.mark.parametrize("name", sorted(SCENARIO_DEFAULTS))
def test_every_builder_keyword_is_read(name):
    source = inspect.getsource(getattr(scenarios, name))
    assert _unread_keywords(source) == []
