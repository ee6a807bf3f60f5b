"""scripts/make_scaling_table.py checks the numbers it publishes with
MismatchError, which python -O keeps."""

import dataclasses
import importlib.util
import os

import pytest

from gkcover import MismatchError, gen_gc

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_scaling_table.py")
DOCS_TABLE = os.path.join(os.path.dirname(__file__), "..", "docs", "scaling.md")


@pytest.fixture
def script():
    spec = importlib.util.spec_from_file_location("make_scaling_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def structural(row):
    """The deterministic columns of a table row: all but the two timings."""
    cells = [c.strip() for c in row.strip("|").split("|")]
    return cells[:4] + cells[5:6] + cells[7:]


def test_rows_match_the_published_table(script):
    with open(DOCS_TABLE) as fh:
        published = {ln.split("|")[1].strip(): ln for ln in fh.read().splitlines()
                     if ln.startswith("| ") and ln.split("|")[1].strip().isdigit()}
    for i in range(1, 7):
        assert structural(script.measure(i)) == structural(published[str(i)])


def test_wrong_greedy_round_count_is_a_mismatch(script, monkeypatch):
    # the instance of size i + 1 makes the greedy cover take i + 1 paths
    monkeypatch.setattr(script, "gen_gc", lambda i: gen_gc(i + 1))
    with pytest.raises(MismatchError, match="greedy took 5 paths, not 4"):
        script.measure(4)


def test_wrong_path_cover_is_a_mismatch(script, monkeypatch):
    def wrong_optimum(i):
        inst = gen_gc(i)
        inst.expected = dataclasses.replace(inst.expected, optimal=inst.expected.optimal + 1)
        return inst

    monkeypatch.setattr(script, "gen_gc", wrong_optimum)
    with pytest.raises(MismatchError, match="minimum path cover 2, expected 3"):
        script.measure(4)
