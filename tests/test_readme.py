"""The README's library example runs as written, so API drift fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
    dra, sizes = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(dra) <= 1.0
    assert sizes.startswith("[")
