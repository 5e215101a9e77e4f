"""Every RunConfig field is a setting with its own key, read somewhere.

A field is the only statement of its config key, so a field other than
``scenario_params`` (which holds the ``scenario.*`` keys) without a key,
or two fields with one key, fails here.  A config key whose field no
command reads is a knob that does nothing: this parses the package
sources with ``ast`` and collects every attribute that is loaded
(``cfg.seed``, ``self.gauge_n``); a field missing from that set fails.
"""

import ast
from dataclasses import fields
from pathlib import Path

from modmhd.config import RunConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "modmhd"


def _attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_attribute_scan_sees_loads_only():
    source = "cfg.seed = 3\nprint(cfg.gauge_n)\n"
    assert _attributes_read(source) == {"gauge_n"}


def test_every_config_field_is_read():
    read = set()
    for path in SRC.glob("*.py"):
        read |= _attributes_read(path.read_text())
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert unread == []


def test_every_field_but_scenario_params_has_a_key():
    keyless = [f.name for f in fields(RunConfig) if "key" not in f.metadata]
    assert keyless == ["scenario_params"]


def test_no_two_fields_share_a_key():
    keys = [f.metadata["key"] for f in fields(RunConfig) if f.metadata]
    assert sorted(keys) == sorted(set(keys))
