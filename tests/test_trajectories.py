"""``scripts/trajectories.py``: the comparison of two traces, on hand-made
records and without a solver run."""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

from drbcd.tensors import SparseTensor

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
    assert c == {"sweeps": (2, 2), "objective": 0.0, "objective_slack": 0.0, "stationarity": 0.0,
                 "first_step_change": None, "identical": True, "classes_match": True, "stops_match": True,
                 "final_objective": (7.0, 7.0), "min_stationarity": (1.0, 1.0)}


def test_deviations_are_relative_to_the_larger_value(trajectories):
    change = [list(r) for r in PARENT]
    change[1][0] = 8.0 * (1 + 1e-9)
    change[2][1] = 1.1
    c = trajectories.compare(PARENT, change)
    assert c["objective"] == pytest.approx(1e-9 / (1 + 1e-9))
    assert c["stationarity"] == pytest.approx(0.1 / 1.1)
    assert not c["identical"] and c["classes_match"]


def test_objective_slack_takes_criterion_1s_form_near_zero(trajectories):
    # At f = 3e-11 a deviation of 3e-12 is 10% of f but nothing beside 1 + |f|.
    parent = [list(r) for r in PARENT]
    parent[2][0] = 3e-11
    change = [list(r) for r in parent]
    change[2][0] = 3.3e-11
    c = trajectories.compare(parent, change)
    assert c["objective"] == pytest.approx(0.3 / 3.3)
    assert c["objective_slack"] == pytest.approx(3e-12 / (1 + 3e-11))
    change[1][0] = 8.0 + 9e-9
    assert trajectories.compare(parent, change)["objective_slack"] == pytest.approx(9e-9 / 9.0)


def test_first_sweep_whose_step_norms_differ(trajectories):
    change = [list(r) for r in PARENT]
    change[2][3] = [0.5, 0.25000000000000006]
    assert trajectories.compare(PARENT, change)["first_step_change"] == 2
    change[1][3] = [0.5000000000000001, 0.25]
    assert trajectories.compare(PARENT, change)["first_step_change"] == 1
    # Over the sweeps both traces have: a shorter change with the same
    # steps so far has moved none.
    assert trajectories.compare(PARENT, PARENT[:2])["first_step_change"] is None


def test_stop_reasons_are_compared(trajectories):
    change = [list(r) for r in PARENT]
    change[2][6] = "stationarity"
    assert not trajectories.compare(PARENT, change)["stops_match"]
    assert not trajectories.compare(PARENT, PARENT[:2])["stops_match"]


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
    # Same inputs on both sides, set up in a median 18.1 ms where the
    # parent's took 28.3 ms and generated with a peak of 12 bytes beside
    # the tensor where the parent's took 30; the change's problem holds a
    # list of 24 bytes where the parent held a copy of 96, built with a peak
    # of 40 bytes where the parent's took 100, and returns the same tensor;
    # its norm peaked at 16 bytes where the parent's took 90; its runs
    # peaked at 70 bytes where the parent's took 160.
    sides = {
        "parent": {"data": {"c seed 1": "aa"}, "setup": {"c seed 1": 0.0283}, "build": {"c seed 1": 30},
                   "problem": {"c seed 1": ["aa", 96, 100, 90]}, "solve": {"c seed 1": 160}, "runs": {}},
        "change": {"data": {"c seed 1": "aa"}, "setup": {"c seed 1": 0.0181}, "build": {"c seed 1": 12},
                   "problem": {"c seed 1": ["aa", 24, 40, 16]}, "solve": {"c seed 1": 70}, "runs": {}},
    }
    monkeypatch.setattr(trajectories, "run_tree", lambda tree: sides[tree.name])
    assert trajectories.main(["--parent", "parent", "--change", "change"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].index("same  set-up ms (parent, change)") < lines[0].index("build peak (parent, change)")
    assert lines[0].index("build peak (parent, change)") < lines[0].index("problem digests")
    assert lines[0].index("set-up peak (parent, change)") < lines[0].index("norm peak")
    assert lines[0].index("norm peak (parent, change)") < lines[0].index("solve peak")
    assert lines[0].endswith("solve peak (parent, change)")
    assert lines[1].split() == ["c", "seed", "1", "aa", "aa", "yes", "28.3", "18.1", "30", "12", "aa", "aa", "yes",
                                "96", "24", "100", "40", "90", "16", "160", "70"]
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


def test_worker_digests_a_tensor_and_its_coordinates_alike(trajectories):
    # A parent's generator may return the dense surrogate where the change's
    # returns its coordinates; the digests still compare.
    worker = trajectories.WORKER
    namespace = {"hashlib": hashlib, "np": np}
    exec(worker[worker.index("def digest") : worker.index("out = {")], namespace)
    digest, dense = namespace["digest"], namespace["dense"]
    x = np.zeros((3, 4, 5))
    x.flat[[2, 17, 59]] = [0.5, 1.5, 2.5]
    coords = SparseTensor(x.shape, np.array([2, 17, 59]), np.array([0.5, 1.5, 2.5]))
    assert digest(dense(coords)) == digest(dense(x)) == digest(x)
    x.flat[17] = 1.25
    assert digest(dense(coords)) != digest(dense(x))


def test_worker_digests_each_problems_data_as_a_tensor_and_times_its_norm(trajectories):
    # The worker itself, on small cases: a problem's ``data`` digests as the
    # tensor the generator described, also where it is the coordinates of
    # a list, and its norm peaks at about the list's bytes there (a few KB
    # of objects beside them), far below the tensor's.
    worker = trajectories.WORKER
    start = worker.index("CASES = (")
    cases = """CASES = (
    ("synth", "synth", (6, 7, 8), 2, 1.0, 1e5, 2, (1,)),
    ("surrogate", "surrogate", (18, 100, 20), 2, 0.5, 3.0, 2, (1,)),
)
"""
    worker = worker[:start] + cases + worker[worker.index("MU_SWEEPS") :]
    proc = subprocess.run([sys.executable, "-c", worker], cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("synth seed 1", "surrogate seed 1"):
        digest, held, setup_peak, norm_peak = out["problem"][name]
        assert digest == out["data"][name]
        assert 0 < out["setup"][name] < 10
    held, norm_peak = out["problem"]["surrogate seed 1"][1:4:2]
    assert 0 < norm_peak <= held + 4096 < 0.1 * 8 * 18 * 100 * 20


def test_run_table_reports_a_deliberate_change(trajectories, monkeypatch, capsys):
    # The change moves the objective at rounding level from sweep 1 and a
    # step norm at sweep 2; the MU run is bit-identical; a third run stops
    # early for another reason.
    moved = [list(r) for r in PARENT]
    moved[1][0] = 8.0 + 2.0**-47  # 7.1e-15, the objective's last bit
    moved[2][3] = [0.5, 0.25000000000000006]
    early = [list(r) for r in PARENT[:2]]
    early[1][6] = "stationarity"
    runs = {"c seed 1": PARENT, "mu on c seed 1": PARENT, "d seed 1": PARENT}
    inputs = {"data": {"c seed 1": "aa", "d seed 1": "bb"}, "build": {}, "solve": {},
              "problem": {"c seed 1": ["aa", 96, 100, 90], "d seed 1": ["bb", 96, 100, 90]}}
    sides = {"parent": {**inputs, "runs": runs},
             "change": {**inputs, "runs": {**runs, "c seed 1": moved, "d seed 1": early}}}
    monkeypatch.setattr(trajectories, "run_tree", lambda tree: sides[tree.name])
    assert trajectories.main(["--parent", "parent", "--change", "change"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(next(line for line in lines if line.startswith("run ")))
    columns = ["objective", "obj/(1+|f|)", "stationarity", "first step change", "bit-identical",
               "classes match", "sweeps match", "stops match", "same data"]
    positions = [lines[header].index(column) for column in columns]
    assert positions == sorted(positions)
    rows = {line[:34].strip(): line[34:].split()[:9] for line in lines[header + 1 :]}
    assert rows["c seed 1"] == ["2/2", "8.88e-16", "7.89e-16", "0.00e+00", "2", "no", "yes", "yes", "yes"]
    assert rows["mu on c seed 1"] == ["2/2", "0.00e+00", "0.00e+00", "0.00e+00", "none", "yes", "yes", "yes", "yes"]
    assert rows["d seed 1"] == ["2/1", "0.00e+00", "0.00e+00", "0.00e+00", "none", "no", "no", "no", "no"]
