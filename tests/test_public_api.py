"""The public surface: the names ``dagiso.__all__`` exports, and the
README's library tour, which must run as printed."""

import re
from pathlib import Path

import dagiso

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_once():
    names = dagiso.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(dagiso, name), name


def test_library_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, f"{README}: Library tour", "exec"), {})
