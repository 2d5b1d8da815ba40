"""README's "Library" example runs as written, so the documented API
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs():
    namespace = {}
    exec(compile(library_snippet(), f"{README}:Library", "exec"), namespace)
    assert namespace["verdict"].good
    assert namespace["witness"] is not None
