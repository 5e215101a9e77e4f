"""Every demo imports against the current public API, and the quick ones run.

Demos run their work under ``if __name__ == "__main__"``, so importing one
only resolves its imports and module constants: a public name that a demo
uses and the package no longer exports fails here, not in a user's shell.
A call whose signature went stale fails only when ``main()`` runs, so
demo 04, which runs in well under a second, is run as well.  So is the
quick start in README.md, which goes stale against the API the same way.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    assert callable(_load(path).main)


def test_dispersion_demo_prints_both_transverse_speeds(capsys):
    # v_A = 1/sqrt(4 pi) = 0.28209 traditional, v_A/sqrt(2) = 0.19947
    # modified, and sound at c_s = 1, each against a tiny oracle gap
    (path,) = [p for p in DEMOS if p.stem == "04_dispersion"]
    _load(path).main()
    out = capsys.readouterr().out
    assert "traditional  phase speeds {0.00000, 0.28209, 1.00000}" in out
    assert "modified     phase speeds {0.00000, 0.19947, 1.00000}" in out
    gaps = [float(line.split("oracle gap ")[1].split(",")[0])
            for line in out.splitlines() if "oracle gap" in line]
    assert len(gaps) == 2 and max(gaps) < 1e-9


def test_readme_quick_start_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("t= 0.000")
    assert lines[-1].startswith("t= 5.000")
