"""``scripts/code_lines.py`` on small modules written to a temporary
directory."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_script()

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


class Box:
    """A class docstring."""

    size = 3


def area(x,
         y):
    """A function docstring,

    with a blank line inside."""
    text = """a string that is not a docstring

    and a blank line inside it"""
    return x * y  # the code line counts


async def later():
    # only a comment before the body
    return os.sep
'''

# import, class, size, def area (two lines), text (its two non-blank
# lines), return, async def, return
CODE_LINES = 10


def test_counts_code_lines_only(tmp_path, capsys):
    path = tmp_path / "small.py"
    path.write_text(MODULE)
    assert code_lines.code_lines(MODULE) == CODE_LINES
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == "%d %s\n" % (CODE_LINES, path)


def test_several_files_and_a_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(MODULE)
    second.write_text("x = 1\n\n\n# done\n")
    assert code_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "%d %s" % (CODE_LINES, first), "1 %s" % second,
        "%d total" % (CODE_LINES + 1)]


def test_no_files_is_a_usage_error(capsys):
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
