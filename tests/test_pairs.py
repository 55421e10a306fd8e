import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


class TestQuartiles:
    def test_interpolated(self):
        assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)

    def test_one_value(self):
        assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestCompare:
    def test_wins_and_ties_higher(self):
        s = pairs.compare([1, 2, 3, 4, 5], [2, 2, 4, 4, 6], "higher", 0.25)
        assert s["wins"] == {"change": 3, "base": 0, "ties": 2}
        assert s["base"] == {"median": 3, "q1": 2, "q3": 4}
        assert s["change"] == {"median": 4, "q1": 2, "q3": 4}
        assert (s["median_diff"], s["base_iqr"]) == (1, 2)
        # 3 of 5 pairs won is no gain; an IQR of 2 on a median of 3 is
        # wider than the 25% bound.
        assert s["verdict"] == "unresolved"

    def test_wins_and_ties_lower(self):
        s = pairs.compare([10, 10, 10, 10], [9, 10, 11, 9], "lower", 0.15)
        assert s["wins"] == {"change": 2, "base": 1, "ties": 1}
        assert s["median_diff"] == -0.5
        assert s["verdict"] == "within bound"

    def test_equal(self):
        s = pairs.compare([5.0] * 6, [5.0] * 6, "lower", 0.15)
        assert s["wins"] == {"change": 0, "base": 0, "ties": 6}
        assert (s["median_diff"], s["base_iqr"], s["verdict"]) == (0.0, 0.0, "equal")

    def test_gain_needs_nine_tenths_and_the_iqr(self):
        base = [10.0, 10.5, 11.0, 10.2, 10.8, 10.4, 10.6, 10.1, 10.9, 10.3]
        up = [b + 2.0 for b in base]
        assert pairs.compare(base, up, "higher", 0.25)["verdict"] == "gain"
        # One tie in ten still wins nine tenths.
        tied = up[:9] + [base[9]]
        assert pairs.compare(base, tied, "higher", 0.25)["wins"]["ties"] == 1
        assert pairs.compare(base, tied, "higher", 0.25)["verdict"] == "gain"
        # Two ties leave 8 of 10 won: no gain.
        assert pairs.compare(base, up[:8] + base[8:], "higher", 0.25)["verdict"] \
            == "within bound"
        # Every pair won, but by less than the base IQR: no gain.
        small = [b + 0.01 for b in base]
        assert pairs.compare(base, small, "higher", 0.25)["verdict"] == "within bound"

    def test_gain_needs_ten_pairs(self):
        base = [10.0, 10.5, 11.0, 10.2, 10.8, 10.4, 10.6, 10.1, 10.9]
        up = [b + 2.0 for b in base]
        s = pairs.compare(base, up, "higher", 0.25)
        assert s["wins"] == {"change": 9, "base": 0, "ties": 0}
        assert s["verdict"] == "within bound"
        s = pairs.compare(base + [10.3], up + [12.3], "higher", 0.25)
        assert s["verdict"] == "gain"

    def test_unresolved_unless_every_change_run_is_better(self):
        # A base IQR of 8 on a median of 18 is wider than the 25% bound.
        base = [10.0, 14.0, 18.0, 22.0, 26.0]
        overlap = [20.0, 24.0, 28.0, 30.0, 32.0]
        assert pairs.compare(base, overlap, "higher", 0.25)["verdict"] == "unresolved"
        above = [27.0, 28.0, 29.0, 30.0, 31.0]
        assert pairs.compare(base, above, "higher", 0.25)["verdict"] == "within bound"
        below = [5.0, 6.0, 7.0, 8.0, 9.0]
        assert pairs.compare(base, below, "lower", 0.25)["verdict"] == "within bound"
        # Equal to the best base run is not better than every base run.
        assert pairs.compare(base, below[:4] + [10.0], "lower", 0.25)["verdict"] \
            == "unresolved"
        assert pairs.compare(base, below, "higher", 0.25)["verdict"] == "unresolved"

    def test_worse_than_bound(self):
        s = pairs.compare([10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "lower", 0.15)
        assert s["wins"] == {"change": 0, "base": 3, "ties": 0}
        assert s["verdict"] == "worse than bound"

    def test_no_bound(self):
        assert pairs.compare([1.0, 2.0], [2.0, 3.0], "lower", None)["verdict"] == "no bound"

    def test_rejects_unpaired(self):
        with pytest.raises(ValueError):
            pairs.compare([1.0], [1.0, 2.0], "lower", 0.1)
        with pytest.raises(ValueError):
            pairs.compare([], [], "lower", 0.1)


def test_summarize_reads_each_metric():
    runs = [{"base": {"metrics": {"a": 1.0, "b": 4.0}},
             "change": {"metrics": {"a": 2.0, "b": 4.0}}}]
    metrics = [{"name": "a", "better": "higher", "bound": 0.5},
               {"name": "b", "better": "lower"}]
    s = pairs.summarize(runs, metrics)
    assert s["a"]["wins"] == {"change": 1, "base": 0, "ties": 0}
    assert s["b"]["verdict"] == "equal"


class TestFingerprintMoves:
    LINE = ("fingerprints: {} match, {} differ, 0 without reference "
            "(queries, draws, rounds, K_recovered, stop_reason)")

    def test_differ_parses_the_line(self):
        assert pairs.differ(self.LINE.format(10, 0)) == 0
        assert pairs.differ(self.LINE.format(13, 2)) == 2
        assert pairs.differ(None) is None
        assert pairs.differ("fingerprints: 3 match") is None

    def test_counts_runs_per_side(self):
        runs = [{"base": {"differ": 0}, "change": {"differ": 2}},
                {"base": {"differ": None}, "change": {"differ": 0}},
                {"base": {"differ": 0}, "change": {"differ": 1}}]
        assert pairs.fingerprint_moves(runs) == {"base": 0, "change": 2}
