"""``scripts/trajectories.py``: the comparison of two traces, on hand-made
records and without a solver run."""

import hashlib
import importlib.util
import math
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def trajectories():
    spec = importlib.util.spec_from_file_location("trajectories", ROOT / "scripts" / "trajectories.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rec(objective, stationarity, point_class, steps=(0.5, 0.25), radius=0.5, unconverged=0, stop=""):
    """A worker record: objective, stationarity, class, block step norms,
    radius, unconverged solves, stop reason."""
    return [objective, stationarity, point_class, list(steps), radius, unconverged, stop]


PARENT = [
    rec(10.0, 4.0, "long", steps=(0.0, 0.0), radius=math.inf),
    rec(8.0, 2.0, "short"),
    rec(7.0, 1.0, "short", stop="max_sweeps"),
]


def test_identical_traces(trajectories):
    c = trajectories.compare(PARENT, [list(r) for r in PARENT])
    assert c == {"sweeps": (2, 2), "objective": 0.0, "stationarity": 0.0,
                 "identical": True, "classes_match": True,
                 "final_objective": (7.0, 7.0), "min_stationarity": (1.0, 1.0)}


def test_deviations_are_relative_to_the_larger_value(trajectories):
    change = [list(r) for r in PARENT]
    change[1][0] = 8.0 * (1 + 1e-9)
    change[2][1] = 1.1
    c = trajectories.compare(PARENT, change)
    assert c["objective"] == pytest.approx(1e-9 / (1 + 1e-9))
    assert c["stationarity"] == pytest.approx(0.1 / 1.1)
    assert not c["identical"] and c["classes_match"]


def test_class_and_length_mismatches(trajectories):
    flipped = [list(r) for r in PARENT]
    flipped[1][2] = "long"
    c = trajectories.compare(PARENT, flipped)
    assert not c["identical"] and not c["classes_match"]
    assert c["objective"] == 0.0 and c["stationarity"] == 0.0

    shorter = trajectories.compare(PARENT, PARENT[:2])
    assert shorter["sweeps"] == (2, 1)
    assert not shorter["identical"] and not shorter["classes_match"]
    assert shorter["objective"] == 0.0


@pytest.mark.parametrize("field, value", [(3, [0.5, 0.25000000000000006]), (4, 0.6), (5, 1), (6, "stationarity")])
def test_any_field_the_csv_writes_breaks_identity(trajectories, field, value):
    # Same objective, stationarity and classes; one other field differs.
    change = [list(r) for r in PARENT]
    change[2][field] = value
    c = trajectories.compare(PARENT, change)
    assert not c["identical"] and c["classes_match"]
    assert c["objective"] == 0.0 and c["stationarity"] == 0.0


def test_worker_records_every_field_the_csv_writes(trajectories):
    worker = trajectories.WORKER
    namespace = {}
    exec(worker[worker.index("def records") : worker.index("def digest")], namespace)
    trace = [SimpleNamespace(objective=7.0, stationarity=1.0, point_class="short", block_step_norms=(0.5, 0.25),
                             radius=0.5, unconverged_solves=0, stop_reason="max_sweeps", elapsed_seconds=2.0)]
    assert namespace["records"](trace) == [PARENT[2]]


def test_each_side_ends_with_its_own_final_objective_and_lowest_stationarity(trajectories):
    # The change ends lower, after a stationarity measure that is not
    # monotone: its running minimum is reached before the last sweep.
    change = [PARENT[0], rec(6.0, 0.5, "short"), rec(5.0, 0.9, "short"), rec(4.5, 0.7, "short", stop="max_sweeps")]
    c = trajectories.compare(PARENT, change)
    assert c["sweeps"] == (2, 3)
    assert c["final_objective"] == (7.0, 4.5)
    assert c["min_stationarity"] == (1.0, 0.5)
    shorter = trajectories.compare(PARENT, PARENT[:2])
    assert shorter["final_objective"] == (7.0, 8.0)
    assert shorter["min_stationarity"] == (1.0, 2.0)


def test_data_digests_are_compared_per_case(trajectories):
    parent = {"paper seed 1": "aa", "paper seed 2": "bb", "desk seed 1": "cc"}
    change = {"paper seed 1": "aa", "paper seed 2": "bx", "surrogate seed 1": "dd"}
    c = trajectories.compare_data(parent, change)
    assert c == {
        "paper seed 1": ("aa", "aa", True),
        "paper seed 2": ("bb", "bx", False),
        "desk seed 1": ("cc", None, False),
        "surrogate seed 1": (None, "dd", False),
    }
    assert list(c)[:3] == list(parent)


def test_each_run_maps_to_the_data_it_factorizes(trajectories):
    assert trajectories.data_of("paper seed 1") == "paper seed 1"
    assert trajectories.data_of("mu on surrogate 500x90x100 seed 2") == "surrogate 500x90x100 seed 2"


def test_worker_digest_tells_shape_and_bits_apart(trajectories):
    # The digest the worker prints, run on tensors that differ only in shape,
    # only in the sign of a zero, or not at all.
    worker = trajectories.WORKER
    namespace = {"hashlib": hashlib, "np": np}
    exec(worker[worker.index("def digest") : worker.index("out = {")], namespace)
    digest = namespace["digest"]
    x = np.arange(24.0).reshape(2, 3, 4)
    assert digest(x) == digest(x.copy()) and len(digest(x)) == 16
    assert digest(x) != digest(x.reshape(4, 3, 2))
    y = x.copy()
    y[0, 0, 0] = -0.0
    assert digest(x) != digest(y)
    assert digest(np.asfortranarray(x)) == digest(x)


def test_data_table_shows_each_problems_data_and_bytes_beside_the_inputs(trajectories, monkeypatch, capsys):
    # Same inputs on both sides; the change's problem holds a list of 24
    # bytes where the parent held a copy of 96, and returns the same tensor.
    sides = {
        "parent": {"data": {"c seed 1": "aa"}, "problem": {"c seed 1": ["aa", 96]}, "runs": {}},
        "change": {"data": {"c seed 1": "aa"}, "problem": {"c seed 1": ["aa", 24]}, "runs": {}},
    }
    monkeypatch.setattr(trajectories, "run_tree", lambda tree: sides[tree.name])
    assert trajectories.main(["--parent", "parent", "--change", "change"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["c", "seed", "1", "aa", "aa", "yes", "aa", "aa", "yes", "96", "24"]
    assert lines[2:4] == ["inputs matched on every case", "problems' data matched on every case"]


def test_worker_counts_each_buffer_a_problem_holds_once(trajectories):
    worker = trajectories.WORKER
    namespace = {"hashlib": hashlib, "np": np}
    exec(worker[worker.index("def digest") : worker.index("out = {")], namespace)
    held_bytes = namespace["held_bytes"]

    class Holder:
        pass

    holder = Holder()
    base = np.zeros(10)
    holder.whole, holder.view, holder.parts, holder.rank = base, base[2:], (np.zeros(3), base[:4]), 5
    assert held_bytes(holder) == 8 * 13
