import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import drbcd.experiment as experiment
from drbcd.cli import main, parse_config, read_config_file
from drbcd.driver import TraceRecord
from drbcd.experiment import (
    AGGREGATE_HEADER,
    TRACE_HEADER,
    AlgorithmSpec,
    ExperimentConfig,
    aggregate_runs,
    run_experiment,
)
from drbcd.svgplot import emit_svg_plot


def trace_from_errors(times_errors):
    out = []
    for n, (t, err) in enumerate(times_errors):
        out.append(
            TraceRecord(
                n=n,
                objective=err * err,
                block_step_norms=(0.0,),
                radius=math.inf,
                stationarity=0.0,
                point_class="long",
                elapsed_seconds=t,
                cumulative_sq_steps=0.0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# parse_config


def test_parse_config_als_dr_entry():
    cfg, _ = parse_config(["--rank", "3", "--algo", "als_dr", "--beta", "0.5", "--c-prime", "1e5"])
    assert len(cfg.algos) == 1
    spec = cfg.algos[0]
    assert spec.name == "als_dr" and spec.beta == 0.5 and spec.c_prime == 1e5
    assert spec.label == "als_dr-0.5"


def test_parse_config_missing_rank_names_rank(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--algo", "als"])
    assert "rank" in capsys.readouterr().err


def test_parse_config_flag_overrides_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("rank = 4\nruns = 3\nseed = 9\n")
    cfg, notes = parse_config(["--config", str(cfg_file), "--rank", "2"])
    assert cfg.rank == 2
    assert cfg.runs == 3 and cfg.seed == 9
    assert any("rank" in n for n in notes)


def test_parse_config_rejects_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("rank = 2\nbogus = 1\n")
    with pytest.raises(SystemExit):
        parse_config(["--config", str(cfg_file)])
    assert "bogus" in capsys.readouterr().err


def test_parse_config_paper_scale_preset():
    cfg, _ = parse_config(["--paper-scale", "--rank", "5"])
    assert cfg.shape == (100, 200, 300)
    assert cfg.runs == 10
    assert [a.label for a in cfg.algos] == ["als_dr-0.5", "als_dr-1", "als", "mu"]
    # Explicit flags still win over the preset.
    cfg2, _ = parse_config(["--paper-scale", "--rank", "5", "--runs", "2"])
    assert cfg2.runs == 2


def test_parse_config_inline_beta_tokens():
    cfg, _ = parse_config(
        ["--rank", "2", "--algo", "als_dr-0.5", "--algo", "als_dr-1", "--c-prime", "100"]
    )
    assert [a.beta for a in cfg.algos] == [0.5, 1.0]
    assert all(a.c_prime == 100 for a in cfg.algos)


def test_read_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(rank=2, shape=(4, 5, 6), runs=2, clock="sweep", serial=True)
    text = "\n".join(cfg.provenance_lines()) + "\n"
    path = tmp_path / "config.txt"
    path.write_text(text)
    values = read_config_file(path)
    assert values["rank"] == 2
    assert values["shape"] == (4, 5, 6)
    assert values["clock"] == "sweep"
    assert values["serial"] is True
    assert values["algo"] == ["als_dr-0.5", "als_dr-1", "als", "mu"]


def test_algorithm_spec_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        AlgorithmSpec("sgd")
    with pytest.raises(ValueError, match="beta"):
        AlgorithmSpec("als_dr")
    assert AlgorithmSpec("mu").label == "mu"


# ---------------------------------------------------------------------------
# aggregate_runs


def test_aggregate_two_constant_runs():
    traces = {
        "als": [
            trace_from_errors([(0.0, 3.0), (1.0, 3.0)]),
            trace_from_errors([(0.0, 5.0), (1.0, 5.0)]),
        ]
    }
    curve = aggregate_runs(traces, np.array([0.5, 1.0]))
    assert_allclose(curve.mean["als"], [4.0, 4.0])
    assert_allclose(curve.std["als"], [1.0, 1.0])
    assert list(curve.n_runs["als"]) == [2, 2]


def test_aggregate_single_run_zero_std():
    traces = {"mu": [trace_from_errors([(0.0, 2.0), (2.0, 1.0)])]}
    curve = aggregate_runs(traces, 4)
    assert np.all(curve.std["mu"] == 0.0)
    assert np.all(curve.n_runs["mu"] == 1)


def test_aggregate_carries_last_observation_forward():
    trace = trace_from_errors([(0.0, 10.0), (1.0, 5.0), (3.0, 2.0)])
    curve = aggregate_runs({"als": [trace]}, np.array([0.5, 2.0, 3.5]))
    assert_allclose(curve.mean["als"], [10.0, 5.0, 2.0])


def test_aggregate_excludes_empty_trace_with_warning():
    traces = {"als": [trace_from_errors([(0.0, 1.0)]), []]}
    with pytest.warns(UserWarning, match="empty trace"):
        curve = aggregate_runs(traces, np.array([0.5]))
    assert list(curve.n_runs["als"]) == [1]


def test_aggregate_requires_some_trace():
    with pytest.raises(ValueError):
        aggregate_runs({"als": [[]]}, 3)


# ---------------------------------------------------------------------------
# SVG plotting


def test_svg_structure_one_algorithm(tmp_path):
    trace = trace_from_errors([(0.0, 4.0), (1.0, 2.0)])
    curve = aggregate_runs({"als": [trace, trace]}, np.array([0.5, 1.0]))
    path = tmp_path / "plot.svg"
    emit_svg_plot(curve, path)
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    assert svg.count("<polygon") == 1
    assert "als" in svg and "</svg>" in svg


def test_svg_empty_curve_rejected(tmp_path):
    curve = aggregate_runs({"als": [trace_from_errors([(0.0, 1.0)])]}, 2)
    empty = experiment.AggregateCurve(
        bin_centers=np.array([]), mean={}, std={}, n_runs={}
    )
    path = tmp_path / "nope.svg"
    with pytest.raises(ValueError):
        emit_svg_plot(empty, path)
    assert not path.exists()
    del curve


def test_svg_deterministic_bytes(tmp_path):
    trace = trace_from_errors([(0.0, 9.0), (1.0, 3.0), (2.0, 1.0)])
    curve = aggregate_runs({"als": [trace], "mu": [trace]}, 5)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_plot(curve, p1, log_y=True)
    emit_svg_plot(curve, p2, log_y=True)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# run_experiment


def desk_config(tmp_path, **kwargs):
    defaults = dict(
        rank=2,
        data="synth",
        shape=(6, 7, 5),
        algos=[AlgorithmSpec("als")],
        runs=2,
        seed=11,
        max_sweeps=8,
        max_seconds=30.0,
        out=str(tmp_path / "exp"),
        serial=True,
        clock="sweep",
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_run_experiment_bookkeeping(tmp_path):
    cfg = desk_config(tmp_path)
    summary = run_experiment(cfg)
    assert not summary.failures
    assert sorted(p.name for p in summary.trace_paths.values()) == [
        "als_run1.csv",
        "als_run2.csv",
    ]
    assert summary.aggregate_path.exists()
    lines1 = summary.trace_paths[("als", 1)].read_text().splitlines()
    lines2 = summary.trace_paths[("als", 2)].read_text().splitlines()
    assert lines1[0] == TRACE_HEADER
    assert len(lines1) == len(lines2) == cfg.max_sweeps + 2  # header + iter 0..N
    agg_lines = summary.aggregate_path.read_text().splitlines()
    assert agg_lines[0] == AGGREGATE_HEADER
    assert len(agg_lines) == 1 + cfg.bins


def test_run_experiment_trace_columns_consistent(tmp_path):
    cfg = desk_config(tmp_path)
    summary = run_experiment(cfg)
    rows = summary.trace_paths[("als", 1)].read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 9
        assert cells[0] == "1"
        objective, recon = float(cells[3]), float(cells[4])
        assert_allclose(recon, math.sqrt(objective), rtol=1e-15)
        assert cells[8] in ("long", "short")
    # 17 significant digits survive the round trip.
    assert float(rows[1].split(",")[3]) == float(rows[1].split(",")[3])


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg1 = desk_config(tmp_path, out=str(tmp_path / "a"))
    cfg2 = desk_config(tmp_path, out=str(tmp_path / "b"))
    s1 = run_experiment(cfg1)
    s2 = run_experiment(cfg2)
    for key in s1.trace_paths:
        assert s1.trace_paths[key].read_bytes() == s2.trace_paths[key].read_bytes()
    assert s1.aggregate_path.read_bytes() == s2.aggregate_path.read_bytes()


def test_threaded_run_matches_serial_bytes(tmp_path, monkeypatch):
    # The pool threads share one problem and its per-thread memo; more
    # workers than cores and a short switch interval interleave them often.
    algos = [AlgorithmSpec("als_dr", 0.5, 1.0), AlgorithmSpec("als"), AlgorithmSpec("mu")]
    kwargs = dict(shape=(8, 9, 10), algos=algos, runs=3, max_sweeps=15)
    serial = run_experiment(desk_config(tmp_path, out=str(tmp_path / "s"), **kwargs))
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_experiment(
            desk_config(tmp_path, out=str(tmp_path / "t"), serial=False, **kwargs)
        )
    finally:
        sys.setswitchinterval(interval)
    assert not serial.failures and not threaded.failures
    assert sorted(threaded.trace_paths) == sorted(serial.trace_paths)
    for key, path in serial.trace_paths.items():
        assert threaded.trace_paths[key].read_bytes() == path.read_bytes(), key


@pytest.mark.parametrize("c_prime, binds", [(1e5, False), (1.0, True)])
def test_report_counts_short_sweeps(tmp_path, c_prime, binds):
    cfg = desk_config(
        tmp_path,
        shape=(5, 6, 4),
        algos=[AlgorithmSpec("als_dr", 0.5, c_prime), AlgorithmSpec("als")],
        max_sweeps=10,
    )
    summary = run_experiment(cfg)
    assert summary.total_sweeps == {"als_dr-0.5": 20, "als": 20}
    assert summary.short_sweeps["als"] == 0
    assert (summary.short_sweeps["als_dr-0.5"] > 0) == binds
    report = summary.report()
    short = summary.short_sweeps["als_dr-0.5"]
    assert f"{short} of 20 sweeps short" in report
    comparison = next(l for l in report.splitlines() if l.startswith("comparison:"))
    assert ("radius never bound: same path as plain als" in comparison) != binds


def test_run_experiment_reaches_optimum_on_noiseless_data(tmp_path):
    cfg = desk_config(
        tmp_path,
        algos=[AlgorithmSpec("als_dr", 0.5, 1e5), AlgorithmSpec("als")],
        runs=1,
        max_sweeps=60,
        clock="wall",
    )
    summary = run_experiment(cfg)
    data_norm = math.sqrt(
        float(np.sum(experiment.resolve_data(cfg) ** 2))
    )
    for label in ("als_dr-0.5", "als"):
        rel = summary.final_errors[label][0] / data_norm
        assert rel <= 1e-2, (label, rel)


def test_run_experiment_records_failures(tmp_path, monkeypatch):
    cfg = desk_config(tmp_path)

    def boom(problem, cfg_, algo, run_index):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(experiment, "_single_run", boom)
    summary = run_experiment(cfg)
    assert len(summary.failures) == cfg.runs
    assert "synthetic failure" in summary.failures[0].message


def test_cli_main_exit_codes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cli_exp"
    code = main(
        [
            "--data", "synth", "--shape", "5,6,4", "--rank", "2",
            "--algo", "mu", "--runs", "1", "--max-sweeps", "3",
            "--out", str(out), "--serial", "--clock", "sweep",
        ]
    )
    assert code == 0
    assert (out / "mu_run1.csv").exists()
    printed = capsys.readouterr().out
    assert "mu" in printed and "aggregate" in printed


def test_cli_reads_ntf1_file(tmp_path):
    from drbcd.datagen import SynthSpec, synthetic_lowrank
    from drbcd.tensors import write_ntf1

    data, _ = synthetic_lowrank(SynthSpec(dims=(5, 4, 6), rank=2, seed=3))
    path = tmp_path / "data.ntf1"
    write_ntf1(path, data)
    out = tmp_path / "exp"
    code = main(
        [
            "--data", f"file:{path}", "--rank", "2", "--algo", "als",
            "--runs", "1", "--max-sweeps", "3", "--out", str(out),
            "--serial", "--clock", "sweep",
        ]
    )
    assert code == 0
    assert (out / "als_run1.csv").exists()


def test_save_data_emits_ntf1(tmp_path):
    from drbcd.tensors import read_ntf1

    cfg = desk_config(tmp_path, save_data=True, runs=1, max_sweeps=2)
    run_experiment(cfg)
    saved = read_ntf1(cfg.out + "/data.ntf1")
    assert saved.shape == cfg.shape
