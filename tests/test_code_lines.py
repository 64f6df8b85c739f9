import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
x = (1 +
     2)  # a trailing comment


class C:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        s = """a string
that is no docstring"""
        return s
'''


def test_counts_the_lines_that_hold_code(tmp_path, capsys):
    # x = (1 +, 2), class C:, def f, both lines of s and return s; the
    # docstrings, the comment line and the blank lines are left out
    assert code_lines.code_lines(SOURCE) == 7
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "8\n"
