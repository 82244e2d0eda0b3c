"""The code-line counter in `tools/code_lines.py`."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# A comment line.
def area(radius):
    """Function docstring."""
    text = """a string that is not a docstring
    spans two lines"""
    return max(
        math.pi * radius * radius,
        0.0,
    )
'''


def test_counts_code_lines_only():
    # import, def, the two lines of `text`, and the four of the call.
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["8", "1", "9"]


def test_main_counts_the_package_from_any_directory(tmp_path, monkeypatch, capsys):
    # It printed "0  total" outside the repository root: it globbed a relative path.
    package = sorted((TOOL.parents[1] / "src" / "pointtrack").glob("*.py"))
    expected = sum(code_lines.code_lines(path.read_text(encoding="utf-8")) for path in package)
    monkeypatch.chdir(tmp_path)
    assert code_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(package) + 1
    assert lines[-1].split() == [str(expected), "total"] and expected > 1000
