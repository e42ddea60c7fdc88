"""The README's Quick-start example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md:quick-start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) > 0                      # hidden flow deviation
    assert lines[-1] == "Danger [118, 129, 183]"
