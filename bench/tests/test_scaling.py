"""Scaling operation and set-up times to the nominal host speed.

    PYTHONPATH=src python -m pytest bench/tests
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402

NOMINAL = run.REF_NOMINAL_S


def test_slices_at_nominal_speed_leave_times_unchanged():
    result = {"op_s": [[0.1, 0.2, 0.3]], "slices_s": [[(0, NOMINAL), (2, NOMINAL)]]}
    assert run.scaled_op_times(result) == [pytest.approx([0.1, 0.2, 0.3])]


def test_operations_follow_the_slices_nearest_to_them():
    # The host halves its speed after operation 19: the first twenty
    # operations are followed by fast slices, the last twenty by slow ones.
    slices = [(k, NOMINAL if k < 20 else 2 * NOMINAL) for k in range(40)]
    took = [0.01] * 20 + [0.02] * 20
    (scaled,) = run.scaled_op_times({"op_s": [took], "slices_s": [slices]})
    # Operation 20 sits at the change, with five fast and five slow slices.
    assert scaled[:20] + scaled[21:] == pytest.approx([0.01] * 39)


def test_each_round_uses_its_own_slices():
    result = {
        "op_s": [[0.2, 0.2], [0.4, 0.4]],
        "slices_s": [[(0, NOMINAL), (1, NOMINAL)], [(0, 2 * NOMINAL), (1, 2 * NOMINAL)]],
    }
    assert run.scaled_op_times(result) == [pytest.approx([0.2, 0.2]), pytest.approx([0.2, 0.2])]


def test_summary_reads_rounds_and_pooled_operations():
    op_s = [[0.001] * 9 + [0.011], [0.002] * 10, [0.003] * 10]
    values = run.summary([3.0, 1.0, 2.0], op_s, 20.0)
    assert values["setup_s"] == 2.0
    assert values["run_s"] == pytest.approx(0.02)
    assert values["op_p50_ms"] == pytest.approx(2.0)
    assert values["op_p90_ms"] == pytest.approx(3.0)
    assert values["peak_rss_mb"] == 20.0


def test_reference_slice_is_positive_and_short():
    times = [worker.reference_slice() for _ in range(5)]
    assert all(0 < t < 0.1 for t in times)
