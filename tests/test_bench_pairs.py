"""The verdicts of ``tools/bench_pairs.py`` on synthetic pair lists."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _compare(parent, change, better="lower", bound=0.25):
    """The comparison of one metric measured as ``parent`` and ``change``
    in pairs, the k-th value of each forming pair k."""
    pairs = [{"pair": k, "m": {"parent": p, "change": c}}
             for k, (p, c) in enumerate(zip(parent, change))]
    summaries = {"parent": {"m": bench_pairs.summary(parent)},
                 "change": {"m": bench_pairs.summary(change)}}
    return bench_pairs.comparison(pairs, summaries, [("m", better, bound)])["m"]


_PARENT = [0.50, 0.48, 0.52, 0.47, 0.53, 0.49, 0.51, 0.50, 0.46, 0.54]


def test_a_clear_gain_is_shown():
    out = _compare(_PARENT, [p - 0.1 for p in _PARENT])
    assert (out["change_wins"], out["gain_shown"], out["within_bound"]) == (10, True, True)


def test_nine_wins_in_ten_suffice_and_eight_do_not():
    nine = [p - 0.1 for p in _PARENT[:9]] + [_PARENT[9] + 0.01]
    eight = [p - 0.1 for p in _PARENT[:8]] + [p + 0.01 for p in _PARENT[8:]]
    assert _compare(_PARENT, nine)["gain_shown"]
    assert not _compare(_PARENT, eight)["gain_shown"]


def test_a_gain_within_the_parents_iqr_is_not_shown():
    # every pair won, by less than the parent's spread
    out = _compare(_PARENT, [p - 0.01 for p in _PARENT])
    assert out["change_wins"] == 10
    assert out["parent_iqr"] > 0.01
    assert not out["gain_shown"]


@pytest.mark.parametrize(
    "factor, better, within",
    [(1.2, "lower", True), (1.3, "lower", False), (0.95, "higher", True),
     (0.85, "higher", False), (0.5, "lower", True), (2.0, "higher", True)],
)
def test_within_bound_reads_the_bound_as_a_fraction_of_the_parents_median(
        factor, better, within):
    bound = 0.25 if better == "lower" else 0.1
    out = _compare(_PARENT, [p * factor for p in _PARENT], better, bound)
    assert out["within_bound"] is within
    assert out["gain_shown"] is (factor < 1.0 if better == "lower" else factor > 1.0)
