"""README's Python API sketch runs as written against the package exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from gcrkit import" in block
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")
