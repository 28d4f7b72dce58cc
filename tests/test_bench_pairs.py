"""``scripts/bench_pairs.py``: claim validation and exit status, with the
benchmark runs replaced by fixed results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_runs(module, monkeypatch, change_rate):
    """Every run reports 1.0 for each end-to-end metric, except the change's
    ``sweeps_per_s``, which reads ``change_rate`` less a little per seed."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_side(tree, workload, seed, seconds):
        values = dict.fromkeys(names, 1.0)
        if tree == ROOT:
            values["sweeps_per_s"] = change_rate - 1e-3 * (seed % 7)
        return {"metrics": {n: {"value": v} for n, v in values.items()}, "provenance": {}}

    monkeypatch.setattr(module, "run_side", run_side)


def argv(tmp_path, *extra):
    return ["--parent", str(tmp_path), "--change", str(ROOT), "--workload", "paper_fit",
            "--out", str(tmp_path / "BENCH.json"), *extra]


def test_rejects_a_claim_that_is_not_an_end_to_end_metric(bench_pairs, monkeypatch, tmp_path):
    fake_runs(bench_pairs, monkeypatch, 2.0)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv(tmp_path, "--claim", "sweep_per_s"))
    assert exc.value.code == 2
    assert not (tmp_path / "BENCH.json").exists()


@pytest.mark.parametrize(
    "change_rate, claim, code",
    [
        (2.0, "sweeps_per_s", 0),  # claim met, nothing worse
        (2.0, None, 0),
        (1.0, "sweeps_per_s", 1),  # claim not met
        (0.5, None, 1),  # sweeps_per_s reads worse
    ],
)
def test_exit_status(bench_pairs, monkeypatch, tmp_path, change_rate, claim, code):
    fake_runs(bench_pairs, monkeypatch, change_rate)
    extra = ("--claim", claim) if claim else ()
    assert bench_pairs.main(argv(tmp_path, *extra)) == code
    summary = json.loads((tmp_path / "BENCH.json").read_text())["summary"]
    assert ("claim_met" in summary["sweeps_per_s"]) == (claim is not None)


def test_run_side_keeps_a_result_with_failed_solves(bench_pairs, monkeypatch, tmp_path):
    # bench/run.py exits 1 when a solve fails, after printing its result.
    result = {"correct": False, "attempted": 4, "failed": 1,
              "metrics": {"ok_frac": {"value": 0.75, "unit": "frac"}}}
    (tmp_path / ".bench_out").mkdir()
    (tmp_path / ".bench_out" / "paper_fit-seed3-trace0.json").write_text(json.dumps({"provenance": {"seed": 3}}))

    def finished(stdout):
        return lambda args, **kwargs: subprocess.CompletedProcess(args, 1, stdout, "FAILED instance 0 mu: boom\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", finished("# summary\n" + json.dumps(result) + "\n"))
    side = bench_pairs.run_side(tmp_path, "paper_fit", 3, 45)
    assert side["metrics"] == result["metrics"]
    assert side["exit_status"] == 1 and "boom" in side["stderr"]
    assert side["provenance"] == {"seed": 3}

    for stdout in ("", "Traceback (most recent call last):\n"):
        monkeypatch.setattr(bench_pairs.subprocess, "run", finished(stdout))
        with pytest.raises(SystemExit, match="no result"):
            bench_pairs.run_side(tmp_path, "paper_fit", 3, 45)


def test_failed_solves_are_judged_by_ok_frac(bench_pairs, monkeypatch, tmp_path):
    # Every change run lost a quarter of its solves, and in one pair all of
    # its BCD-DR solves, so that run has no sweeps_per_s.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_side(tree, workload, seed, seconds):
        values = dict.fromkeys(names, 1.0)
        if tree == ROOT:
            values["ok_frac"] = 0.75
            if seed == 105:
                values["sweeps_per_s"] = None
        return {"metrics": {n: {"value": v} for n, v in values.items()}, "provenance": {}}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(argv(tmp_path, "--seed", "101", "--claim", "sweeps_per_s")) == 1
    summary = json.loads((tmp_path / "BENCH.json").read_text())["summary"]
    assert summary["ok_frac"]["verdict"] == "worse"
    assert summary["sweeps_per_s"]["missing"] == {"parent": 0, "change": 1}
    assert summary["sweeps_per_s"]["verdict"] == "unresolved"
    assert summary["sweeps_per_s"]["claim_met"] is False
    assert summary["mu_sweeps_per_s"]["verdict"] == "no regression"


@pytest.mark.parametrize(
    "claim, shown",
    [
        (None, "sweeps_per_s parent 1, change 1.997, copy 1"),
        ("sweeps_per_s", "sweeps_per_s parent 1, change 1.997, copy 1"),
        ("peak_rss_mb",
         "sweeps_per_s parent 1, change 1.997, copy 1; peak_rss_mb parent 1, change 1, copy 1"),
    ],
)
def test_each_pair_prints_the_claimed_metric(bench_pairs, monkeypatch, tmp_path, capsys, claim, shown):
    fake_runs(bench_pairs, monkeypatch, 2.0)
    extra = ("--claim", claim) if claim else ()
    bench_pairs.main(argv(tmp_path, *extra))
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pair ")]
    assert len(lines) == bench_pairs.PAIRS
    assert lines[0] == f"pair 0 seed 101: {shown}"


def aa_runs(module, monkeypatch, parent, copy_noise, change_worse=False, copy_missing=False):
    """The parent reads 1.0 for every metric; the change reads 2.0 less a
    little per seed for ``sweeps_per_s``, or 0.5 with ``change_worse``; the
    copy reads 1.0, plus ``copy_noise`` on even seeds and less it on odd
    ones, and no value at seed 105 with ``copy_missing``. The copy runs the
    ``parent`` tree too, so a run is told apart by its place in its pair. Returns the runs made, as ``(side, seed)``."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = []
    seeds = []

    def run_side(tree, workload, seed, seconds):
        if seed not in seeds:
            seeds.append(seed)
        sides = ("parent", "change", "copy")
        order = sides if (len(seeds) - 1) % 2 == 0 else sides[::-1]
        side = order[sum(s == seed for _, s in runs)]
        assert tree == (ROOT if side == "change" else parent)
        runs.append((side, seed))
        values = dict.fromkeys(names, 1.0)
        if side == "change":
            values["sweeps_per_s"] = 0.5 if change_worse else 2.0 - 1e-3 * (seed % 7)
        elif side == "copy":
            values["sweeps_per_s"] = 1.0 + (copy_noise if seed % 2 == 0 else -copy_noise)
            if copy_missing and seed == 105:
                values["sweeps_per_s"] = None
        return {"metrics": {n: {"value": v} for n, v in values.items()}, "provenance": {}}

    monkeypatch.setattr(module, "run_side", run_side)
    return runs


@pytest.mark.parametrize(
    "copy_noise, change_worse, copy_missing, code",
    [
        (0.0, False, False, 0),
        (1.5, False, False, 1),
        (0.0, False, True, 1),  # no A/A spread: the claim is not met
        (0.0, True, True, 1),  # the change is worse, whatever the copy read
    ],
)
def test_aa_control_must_be_cleared_by_a_claim(
    bench_pairs, monkeypatch, tmp_path, copy_noise, change_worse, copy_missing, code
):
    # The change beats every parent run by about 1.0, over a parent IQR of 0.
    # A copy of the parent that moves by 1.5 either way leaves that gap
    # inside the A/A spread, so the claim is not met.
    runs = aa_runs(bench_pairs, monkeypatch, tmp_path, copy_noise, change_worse, copy_missing)
    assert bench_pairs.main(argv(tmp_path, "--claim", "sweeps_per_s", "--held-out", "999")) == code
    record = json.loads((tmp_path / "BENCH.json").read_text())
    entry = record["summary"]["sweeps_per_s"]
    if copy_missing:
        assert entry["aa"] == {"missing": 1}
    else:
        assert entry["aa"]["median_gap"] == 0.0
        assert entry["aa"]["spread"] == copy_noise
        assert entry["aa"]["copy"]["median"] == 1.0
    assert entry["verdict"] == ("worse" if change_worse else "no regression")
    assert entry["claim_met"] is (code == 0)
    assert record["summary"]["ok_frac"]["aa"] == {
        "copy": {"q1": 1.0, "median": 1.0, "q3": 1.0}, "median_gap": 0.0, "spread": 0.0}
    # Eleven pairs of three runs, each side first and last equally often in
    # the ten; the held-out pair runs a copy too.
    assert len(runs) == 3 * (bench_pairs.PAIRS + 1)
    assert runs[:6] == [("parent", 101), ("change", 101), ("copy", 101),
                        ("copy", 102), ("change", 102), ("parent", 102)]
    assert runs[-3:] == [("parent", 999), ("change", 999), ("copy", 999)]
    assert record["held_out"]["sweeps_per_s"]["aa"]["spread"] == copy_noise
