"""The README "Library use" example runs as written: it is the one documented
import from the package root."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(0.0 <= float(v) <= 1.0 for v in printed)
