"""The summary arithmetic of ``tools/pairs.py``."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

REV = [0.20, 0.19, 0.21, 0.18, 0.20, 0.22, 0.19, 0.20, 0.21, 0.20]


def test_medians_quartiles_and_wins():
    change = [r - 0.05 for r in REV]
    change[3] = REV[3]          # a tie counts for neither side
    s = pairs.summarize(REV, change, "lower", 0.25)
    # inclusive quartiles of the 10 sorted readings 0.18 ... 0.22
    assert s["rev"] == pytest.approx((0.20, 0.1925, 0.2075))
    assert s["change"] == pytest.approx((0.15, 0.15, 0.16))
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["gap"] == pytest.approx(0.05)
    assert s["rev_iqr"] == pytest.approx(0.015)
    assert s["verdict"] == "gain"


@pytest.mark.parametrize("shift, wins, verdict", [
    (-0.01, 10, "within bound"),     # 10/10, but a gap below REV's IQR
    (0.04, 0, "within bound"),       # 20% worse: inside the bound
    (0.06, 0, "regression"),         # 30% worse
], ids=["gap_inside_iqr", "inside_bound", "past_bound"])
def test_lower_is_better_verdicts(shift, wins, verdict):
    s = pairs.summarize(REV, [r + shift for r in REV], "lower", 0.25)
    assert s["wins"] == wins
    assert s["verdict"] == verdict


def test_eight_wins_of_ten_is_no_gain():
    change = [r - 0.05 for r in REV]
    change[0] = change[1] = 0.3
    s = pairs.summarize(REV, change, "lower", 0.25)
    assert s["wins"] == 8 and s["verdict"] == "within bound"


def test_higher_is_better_and_spread_past_the_bound():
    rev = [1.0, 1.0, 1.0, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert pairs.summarize(rev, [0.995] * 10, "higher", 0.01)["verdict"] \
        == "within bound"
    # REV's readings spread past a 1% bound: a close change is unresolved,
    # unless every run of it beats every run of REV
    wide = [1.0, 0.8, 1.2, 0.9, 1.1, 1.0, 0.95, 1.05, 0.85, 1.15]
    s = pairs.summarize(wide, [w - 0.005 for w in wide], "higher", 0.01)
    assert s["wins"] == 0 and s["verdict"] == "unresolved"
    s = pairs.summarize(wide, [1.25] * 10, "higher", 0.01)
    assert s["wins"] == 10 and s["verdict"] == "gain"


def test_pairs_must_match():
    with pytest.raises(ValueError):
        pairs.summarize(REV, REV[:-1], "lower", 0.25)
