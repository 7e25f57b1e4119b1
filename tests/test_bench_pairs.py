"""The summary arithmetic of scripts/bench_pairs.py on hand-made runs."""

import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
summarize = runpy.run_path(str(SCRIPT))["summarize"]

END_TO_END = [{"name": "images_per_s", "better": "higher"},
              {"name": "op_ms.p50", "better": "lower"}]


def run(images_per_s, p50, failed=0, correct=True, exit=0):
    """One run.py record: a manifest line, a result line and its exit."""
    return {"manifest": {"manifest": {"seed": 0}},
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {"images_per_s": {"value": images_per_s,
                                                    "unit": "images/s"},
                                   "op_ms.p50": {"value": p50,
                                                 "unit": "ms"}}},
            "exit": exit, "stderr": ""}


def pairs(parent, change):
    return [{"workload": "train", "seed": s,
             "first": "parent" if s % 2 == 0 else "change",
             "parent": p, "change": c}
            for s, (p, c) in enumerate(zip(parent, change))]


def test_medians_iqr_wins_and_worse_by():
    # parent images/s 100, 110, 120, 130: median 115, quartiles 107.5 and
    # 122.5; change 120, 110, 150, 140: median 130, better in 3 of 4 (one
    # tie); p50 parent 10, 12, 14, 16 against change 9, 13, 13, 15
    got = summarize(pairs([run(100, 10), run(110, 12), run(120, 14),
                           run(130, 16)],
                          [run(120, 9), run(110, 13), run(150, 13),
                           run(140, 15)]), END_TO_END)
    assert got == {
        "pairs": 4, "failed": {"parent": 0, "change": 0}, "correct": True,
        "images_per_s": {"parent_median": 115.0, "parent_iqr": 15.0,
                         "change_median": 130.0, "change_better_in": "3/4",
                         "worse_by": round(-15 / 115, 4)},
        "op_ms.p50": {"parent_median": 13.0, "parent_iqr": 3.0,
                      "change_median": 13.0, "change_better_in": "3/4",
                      "worse_by": 0.0},
    }


def test_worse_change_reads_positive_for_either_direction():
    got = summarize(pairs([run(200, 10)], [run(150, 12)]), END_TO_END)
    assert got["images_per_s"]["worse_by"] == 0.25
    assert got["op_ms.p50"]["worse_by"] == 0.2
    assert got["images_per_s"]["change_better_in"] == "0/1"
    assert got["images_per_s"]["parent_iqr"] == 0.0


@pytest.mark.parametrize("bad, failed, correct", [
    (run(100, 10, failed=2), 2, True),
    (run(100, 10, correct=False), 0, False),
    (dict(run(100, 10), exit=1), 0, False),
    ({"manifest": None, "result": None, "exit": 1, "stderr": "boom"}, 0,
     False)])
def test_failures_and_incorrect_runs_are_counted(bad, failed, correct):
    got = summarize(pairs([run(100, 10)] * 2, [run(100, 10), bad]),
                    END_TO_END)
    assert got["correct"] is correct
    assert got["failed"] == {"parent": 0, "change": failed}
    # a run without a result line drops out of the metric, not the count
    assert got["op_ms.p50"]["change_better_in"] == "0/2"
