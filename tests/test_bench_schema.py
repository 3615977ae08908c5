"""Schema check for the machine-readable benchmark artifacts.

Every ``results/BENCH_*.json`` file is a mapping of benchmark sections,
and every section must carry a non-empty ``entries`` list of
``{name, value, unit}`` records (the flat view downstream tooling
consumes).  The check runs over whatever BENCH files are present so a
fresh checkout (before any benchmark run) trivially passes, while a
benchmark that writes a malformed file fails CI.
"""

import json
import pathlib
import re

import pytest

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
BENCH_FILES = sorted(RESULTS.glob("BENCH_*.json"))

#: leaf names that carry a unit of their own and so are never counts:
#: rates, speedup ratios and megabyte sizes
NOT_COUNT = re.compile(r"(_per_sec(ond)?|^speedup.*|_mb)$")


def leaf(name: str) -> str:
    """The last dotted/bracketed component of an entry name."""
    parts = name.replace("]", ".").replace("[", ".").split(".")
    return [p for p in parts if p][-1]


def test_bench_files_exist():
    # the repo ships its benchmark artifacts; an empty glob means the
    # results were deleted without being regenerated
    assert BENCH_FILES, "no results/BENCH_*.json artifacts found"


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[p.name for p in BENCH_FILES]
)
def test_bench_schema(path):
    data = json.loads(path.read_text())
    assert isinstance(data, dict) and data, f"{path.name}: empty payload"
    for section, payload in data.items():
        assert isinstance(payload, dict), f"{path.name}:{section}"
        entries = payload.get("entries")
        assert isinstance(entries, list) and entries, (
            f"{path.name}:{section} must carry a non-empty entries list"
        )
        for e in entries:
            assert isinstance(e, dict), f"{path.name}:{section}: {e!r}"
            assert isinstance(e.get("name"), str) and e["name"], e
            assert isinstance(e.get("value"), (int, float)) and not isinstance(
                e["value"], bool
            ), e
            assert isinstance(e.get("unit"), str) and e["unit"], e
            # entry names are rooted at their section slug
            assert e["name"] == section or e["name"].startswith(
                section + "."
            ) or e["name"].startswith(section + "["), e["name"]
            if NOT_COUNT.search(leaf(e["name"])):
                assert e["unit"] != "count", e
