"""README's library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _comment(line: str) -> str:
    return line.split("#", 1)[1].strip()


def test_readme_library_example():
    code = _library_example()
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, namespace)
    lines = code.splitlines()
    expected = [_comment(line) for line in lines if line.startswith("print(")]
    assert len(expected) >= 6
    assert out.getvalue().splitlines() == expected
    # the one documented value that is assigned rather than printed
    (ok_line,) = [line for line in lines if line.startswith("ok, diag =")]
    assert repr((namespace["ok"], namespace["diag"])) == _comment(ok_line)
