"""The README's library example runs as written, and prints what its
comments say."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a trailing comment whose first word is a value: an integer, a fraction or a bool
_VALUE_COMMENT = re.compile(r"^(?P<expr>[^#]+?)\s+#\s+(?P<value>-?\d+(?:/\d+)?|True|False)\b")


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_runs_and_its_values_hold():
    block = _library_block()
    namespace: dict[str, object] = {}
    exec(compile(block, str(README), "exec"), namespace)
    shown = [(m["value"], str(eval(m["expr"], namespace))) for m in map(_VALUE_COMMENT.match, block.splitlines()) if m]
    assert all(value == got for value, got in shown), shown
    assert {"1693440", "1624", "12600", "105/16"} <= {value for value, _ in shown}
    assert [tuple(r.instance) for r in namespace["reports"]] == [(6, n) for n in range(20)]
    assert all(r.all_match for r in namespace["reports"])
