"""The pure parts of ``scripts/bench.py``: pair order, the per-metric summary and the latency groups."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", _SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_pairs_alternate_which_side_runs_first():
    assert [bench.order(i) for i in range(4)] == [("this", "other"), ("other", "this")] * 2


@pytest.mark.parametrize("better, wins", [("higher", {"this": 2, "other": 0}), ("lower", {"this": 0, "other": 2})])
def test_a_pair_is_won_only_by_the_strictly_better_side(better, wins):
    # pair 2 is a tie: it counts for neither side
    assert bench.compare([1.0, 2.0, 3.0], [2.0, 2.0, 4.0], better)["wins"] == wins


def test_quartiles_of_a_single_pair():
    assert bench.quartiles([4.5]) == [4.5] * 3
    c = bench.compare([4.0], [5.0], "higher")
    assert c["median"] == {"other": 4.0, "this": 5.0}
    assert c["quartiles"] == {"other": [4.0, 4.0], "this": [5.0, 5.0]}


def test_change_is_that_of_the_medians():
    # the means would read 4.33 -> 2.17, a fall; the medians read 2 -> 3
    c = bench.compare([1.0, 2.0, 10.0], [3.0, 3.0, 0.5], "lower")
    assert c["median"] == {"other": 2.0, "this": 3.0}
    assert c["change_pct"] == pytest.approx(50.0)
    assert c["quartiles"] == {"other": [1.5, 6.0], "this": [1.75, 3.0]}
    assert bench.compare([0.0], [1.0], "lower")["change_pct"] is None


def test_a_checkout_outside_git_records_no_commit(tmp_path):
    assert bench.commit(tmp_path) == {"git_commit": None, "uncommitted_changes": None}


def test_latencies_group_by_label_without_their_index_tokens():
    groups = bench.latency_groups(
        {"#0 F*G": 3.0, "#1 F*G": 1.0, "#12 F*G": 2.0, "constant_A beam:8 #0 funnel K=256": 0.5, "F+G": 4.0}
    )
    assert groups == {
        "F*G": {"count": 3, "median": 2.0, "max": 3.0, "sum": 6.0},
        "F+G": {"count": 1, "median": 4.0, "max": 4.0, "sum": 4.0},
        "constant_A beam:8 funnel K=256": {"count": 1, "median": 0.5, "max": 0.5, "sum": 0.5},
    }


def test_a_written_report_puts_each_latency_group_on_one_line():
    latencies = bench.latency_groups({"#0 F*G": 3.0, "#1 F*G": 1.0, "F+G": 4e-05, "norm #3 K=256": 0.25})
    report = {"workloads": {"w": {"pairs": [{"this": {"op_latency_s": latencies, "metrics": {"ops_per_s": 1.5}}}]}}}
    text = bench.dumps(report)
    assert json.loads(text) == report and text.endswith("}\n")
    lines = [line.strip() for line in text.splitlines()]
    assert '"F*G": {"count": 2, "max": 3.0, "median": 2.0, "sum": 4.0},' in lines
    assert '"F+G": {"count": 1, "max": 4e-05, "median": 4e-05, "sum": 4e-05},' in lines
    assert '"norm K=256": {"count": 1, "max": 0.25, "median": 0.25, "sum": 0.25}' in lines
    assert '"ops_per_s": 1.5' in lines  # every other value keeps a line of its own
    assert not any(line.startswith(('"count"', '"median"', '"max"', '"sum"')) for line in lines)


def test_the_groups_that_moved_most_are_ranked_by_their_summed_latency():
    """Two slow members move a group's sum while its median stands still;
    the move is the change of the median sum over the pairs, largest in
    seconds first, and a group missing from some run is left out."""

    def side(wide, small, alone=None):
        latencies = {f"#{i} (F*G)*H": 1e-4 for i in range(78)}
        latencies.update({"#78 (F*G)*H": wide, "#79 (F*G)*H": wide, "#0 F+G": small, "#1 F+G": small})
        if alone is not None:
            latencies["#0 only here"] = alone
        return {"op_latency_s": bench.latency_groups(latencies)}

    pairs = [
        {"other": side(2e-3, 1.0e-5, alone=2.0), "this": side(5e-4, 1.2e-5, alone=1.0)},
        {"other": side(2.2e-3, 1.0e-5), "this": side(4e-4, 1.2e-5)},
        {"other": side(3e-3, 1.0e-5), "this": side(6e-4, 1.2e-5)},
    ]
    assert pairs[0]["other"]["op_latency_s"]["(F*G)*H"]["median"] == pairs[0]["this"]["op_latency_s"]["(F*G)*H"]["median"]
    (first, a, b, change), (second, c, d, rise) = bench.moved_groups(pairs)
    assert (first, second) == ("(F*G)*H", "F+G")
    assert a == pytest.approx(78e-4 + 4.4e-3) and b == pytest.approx(78e-4 + 1e-3)
    assert change == pytest.approx((b / a - 1) * 100) and change < 0
    assert (c, d) == pytest.approx((2e-5, 2.4e-5)) and rise == pytest.approx(20.0)
    assert len(bench.moved_groups(pairs, n=1)) == 1
