"""Every RunConfig field is read somewhere in the package.

A config key whose field no command reads is a knob that does nothing.
This parses the package sources with ``ast`` and collects every attribute
that is loaded (``cfg.seed``, ``self.gauge_n``); a field missing from
that set fails here.
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
