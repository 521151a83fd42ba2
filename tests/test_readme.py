"""The README's library quickstart runs and prints what its comments say.

Every command of the README's command-line block runs through
``cli.main`` in ``tests/test_cli.py`` (``TestReadmeCommands``), which
also checks the ``# t^k: ...`` lines that follow a command.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# a print call and its trailing comment, the printed text
PRINTED = re.compile(r"^print\(.*\)\s+# (.*)$")


def quickstart():
    """The source of the README's library quickstart block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_prints_what_its_comments_say():
    source = quickstart()
    lines = [line for line in source.splitlines() if line.startswith("print(")]
    wanted = [PRINTED.match(line).group(1) for line in lines]
    assert len(wanted) >= 3
    printed = []
    exec(source, {"print": lambda *args: printed.append(
        " ".join(map(str, args)))})
    assert len(printed) == len(wanted)
    for got, want in zip(printed, wanted):
        if want.endswith("..."):
            assert got.startswith(want[:-3])
        else:
            assert got == want
