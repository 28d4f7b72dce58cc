import math
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import drbcd.experiment as experiment
from drbcd.cli import main, parse_config, read_config_file
from drbcd.driver import TraceRecord
from drbcd.factorization import NtfProblem
from drbcd.schedule import RadiusSchedule
from drbcd.experiment import (
    AGGREGATE_HEADER,
    TRACE_HEADER,
    AlgorithmSpec,
    OPTIONS,
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


def test_parse_config_c_prime_reaches_default_entries(tmp_path, capsys):
    out = tmp_path / "exp"
    argv = [
        "--data", "surrogate", "--c-prime", "3", "--rank", "5", "--runs", "2",
        "--max-sweeps", "10", "--clock", "sweep", "--out", str(out),
    ]
    cfg, _ = parse_config(argv)
    assert [a.label for a in cfg.algos] == ["als_dr-0.5", "als_dr-1", "als", "mu"]
    assert {a.c_prime for a in cfg.algos if a.name == "als_dr"} == {3.0}
    assert main(argv) == 0
    assert "c-prime = 3" in (out / "config.txt").read_text().splitlines()
    report = capsys.readouterr().out
    assert "INVARIANT" not in report
    for label in ("als_dr-0.5", "als_dr-1"):
        line = next(l for l in report.splitlines() if l.startswith(f"{label}:"))
        short = int(line.split(" of 20 sweeps short")[0].rsplit(", ", 1)[1])
        assert short > 0, line


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["--beta", "0.7"], "", "beta"),
        (["--algo", "als_dr-0.5", "--beta", "0.7"], "", "beta"),
        (["--paper-scale", "--beta", "0.7"], "", "beta"),
        (["--algo", "als", "--algo", "mu", "--c-prime", "3"], "", "c-prime"),
        ([], "beta = 0.7\n", "beta"),
        ([], "algo = als_dr-1\nbeta = 0.7\n", "beta"),
        ([], "algo = mu\nc-prime = 3\n", "c-prime"),
    ],
)
def test_parse_config_rejects_unused_beta_and_c_prime(tmp_path, capsys, argv, config, key):
    if config:
        path = tmp_path / "exp.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        parse_config(["--rank", "2", *argv])
    assert exc.value.code == 2
    assert f"{key} applies only to" in capsys.readouterr().err


def test_parse_config_bare_als_dr_takes_beta_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("algo = als_dr\nalgo = als_dr-1\nbeta = 0.7\nc-prime = 2\n")
    cfg, _ = parse_config(["--rank", "2", "--config", str(path)])
    assert [(a.beta, a.c_prime) for a in cfg.algos] == [(0.7, 2.0), (1.0, 2.0)]


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


@st.composite
def config_fields(draw):
    """Every ExperimentConfig field, drawn over its whole type; NaN is left
    out because it never equals itself."""
    floats = st.floats(allow_nan=False)
    # Mostly printable ASCII, with the characters config.txt cannot hold.
    text = st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("#\n\t\u00e9"))
    c_prime = draw(floats)
    algo = st.one_of(
        st.builds(AlgorithmSpec, st.just("als_dr"), floats, st.just(c_prime)),
        st.sampled_from([AlgorithmSpec("als"), AlgorithmSpec("mu")]),
    )
    return dict(
        rank=draw(st.integers(min_value=1)),
        data=draw(st.sampled_from(["synth", "surrogate"]) | text.map("file:".__add__)),
        shape=draw(st.lists(st.integers(), max_size=4).map(tuple)),
        algos=draw(st.lists(algo, min_size=1, max_size=4, unique_by=lambda a: a.label)),
        runs=draw(st.integers(min_value=1)),
        seed=draw(st.integers()),
        max_sweeps=draw(st.integers()),
        max_seconds=draw(floats),
        box_bound=draw(st.none() | floats),
        out=draw(text),
        plot=draw(st.booleans()),
        serial=draw(st.booleans()),
        clock=draw(st.sampled_from(["wall", "sweep"])),
        log_y=draw(st.booleans()),
        noise_level=draw(floats),
        density=draw(floats),
        mean_abs=draw(floats),
        log_offset=draw(st.integers()),
        init_scale=draw(floats),
        save_data=draw(st.booleans()),
        bins=draw(st.integers(min_value=1)),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fields=config_fields())
def test_config_txt_parses_back_to_an_equal_config(fields):
    # Each table key but algo, beta, c-prime (together: algos) and
    # paper-scale (a preset) is a field; every field is drawn.
    keys = {opt.attr for opt in OPTIONS} - {"algo", "beta", "c_prime", "paper_scale"}
    assert set(fields) == keys | {"algos"}
    try:
        cfg = ExperimentConfig(**fields)
    except ValueError:
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.txt"
        # Written as run_experiment writes it.
        path.write_text("\n".join(cfg.provenance_lines()) + "\n", encoding="ascii")
        back, notes = parse_config(["--config", str(path)])
    assert back == cfg
    assert notes == []


def test_config_rejects_what_config_txt_cannot_hold(capsys):
    with pytest.raises(ValueError, match="duplicate algorithm labels: als_dr-0.5"):
        ExperimentConfig(rank=2, algos=[AlgorithmSpec("als_dr", 0.5, 1.0)] * 2)
    # Distinct betas, one label: their trace files would collide.
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig(
            rank=2,
            algos=[AlgorithmSpec("als_dr", 0.1234567, 1.0), AlgorithmSpec("als_dr", 0.1234568, 1.0)],
        )
    with pytest.raises(ValueError, match="c_prime"):
        ExperimentConfig(
            rank=2,
            algos=[AlgorithmSpec("als_dr", 0.5, 1.0), AlgorithmSpec("als_dr", 1.0, 100.0)],
        )
    for out in ("a#b", "a\nb", " a", "caf\u00e9"):
        with pytest.raises(ValueError, match="config.txt"):
            ExperimentConfig(rank=2, out=out)
    with pytest.raises(SystemExit):
        parse_config(["--rank", "2", "--algo", "als_dr-0.5", "--algo", "als_dr-0.5", "--runs", "2"])
    assert "duplicate algorithm labels" in capsys.readouterr().err


def test_algorithm_spec_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        AlgorithmSpec("sgd")
    with pytest.raises(ValueError, match="beta"):
        AlgorithmSpec("als_dr")
    with pytest.raises(ValueError, match="no beta"):
        AlgorithmSpec("mu", beta=0.5)
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
    for k, row in enumerate(rows):
        cells = row.split(",")
        assert len(cells) == 11
        assert cells[0] == "1"
        objective, recon = float(cells[3]), float(cells[4])
        assert_allclose(recon, math.sqrt(objective), rtol=1e-15)
        assert cells[8] in ("long", "short")
        assert cells[9] == "0"
        assert cells[10] == ("max_sweeps" if k == len(rows) - 1 else "")
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
    # The pool threads share one problem and its per-thread memo (and, on
    # the sparse surrogate, its coordinate list and per-thread scratch) and
    # each run index's read-only start;
    # more workers than cores and a short switch interval interleave them.
    algos = [AlgorithmSpec("als_dr", 0.5, 1.0), AlgorithmSpec("als"), AlgorithmSpec("mu")]
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 8)
    for data, shape in [("synth", (8, 9, 10)), ("surrogate", (10, 50, 12))]:
        kwargs = dict(data=data, shape=shape, algos=algos, runs=3, max_sweeps=15)
        out = tmp_path / data
        serial = run_experiment(desk_config(tmp_path, out=str(out / "s"), **kwargs))
        sparse = NtfProblem(experiment.resolve_data(desk_config(tmp_path, **kwargs)), 2)._coo is not None
        assert sparse == (data == "surrogate")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_experiment(
                desk_config(tmp_path, out=str(out / "t"), serial=False, **kwargs)
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
    tallies = summary.tallies
    assert {label: t.total_sweeps for label, t in tallies.items()} == {"als_dr-0.5": 20, "als": 20}
    assert tallies["als"].short_sweeps == 0
    assert (tallies["als_dr-0.5"].short_sweeps > 0) == binds
    report = summary.report()
    short = tallies["als_dr-0.5"].short_sweeps
    assert f"{short} of 20 sweeps short" in report
    comparison = next(l for l in report.splitlines() if l.startswith("comparison:"))
    assert ("radius never bound: same path as plain als" in comparison) != binds


def test_report_counts_runs_stopped_by_the_time_budget(tmp_path):
    # With the sweep clock, a 3 s budget stops every run at sweep 3, before
    # the 8-sweep cap.
    algos = [AlgorithmSpec("als"), AlgorithmSpec("mu")]
    timed = run_experiment(desk_config(tmp_path / "timed", algos=algos, max_seconds=3.0))
    assert {label: t.time_stops for label, t in timed.tallies.items()} == {"als": 2, "mu": 2}
    assert {label: t.total_sweeps for label, t in timed.tallies.items()} == {"als": 6, "mu": 6}
    lines = timed.report().splitlines()
    for label in ("als", "mu"):
        line = next(l for l in lines if l.startswith(f"{label}:"))
        assert "2 of 2 runs stopped by the time budget" in line
    capped = run_experiment(desk_config(tmp_path / "capped", algos=algos))
    assert {label: t.time_stops for label, t in capped.tallies.items()} == {"als": 0, "mu": 0}
    assert "0 of 2 runs stopped by the time budget" in capped.report()


def test_report_counts_unconverged_block_solves(tmp_path, monkeypatch):
    # Every second block solve reads unconverged; MU makes no block solves.
    import drbcd.driver as driver

    solve = driver.solve_block_qp
    calls = []

    def every_second_unconverged(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)._replace(converged=len(calls) % 2 == 1)

    monkeypatch.setattr(driver, "solve_block_qp", every_second_unconverged)
    cfg = desk_config(tmp_path, algos=[AlgorithmSpec("als"), AlgorithmSpec("mu")], runs=1, max_sweeps=4)
    summary = run_experiment(cfg)
    tallies = summary.tallies
    assert {label: t.block_solves for label, t in tallies.items()} == {"als": 12, "mu": 0}
    assert {label: t.unconverged_solves for label, t in tallies.items()} == {"als": 6, "mu": 0}
    lines = summary.report().splitlines()
    assert "6 of 12 block solves unconverged" in next(l for l in lines if l.startswith("als:"))
    assert "block solves" not in next(l for l in lines if l.startswith("mu:"))
    header, *rows = summary.trace_paths[("als", 1)].read_text().splitlines()
    assert header == experiment.TRACE_HEADER
    # The trace CSV carries the per-sweep counts: 1, 2, 1, 2 after the start.
    assert [row.split(",")[9] for row in rows] == ["0", "1", "2", "1", "2"]


def test_report_lists_broken_invariants(tmp_path, monkeypatch, capsys):
    # A wrapped sweep raises the recorded objective at sweep 3 of every
    # block-descent run; MU runs are not checked. A broken invariant is
    # reported, not a failure.
    import dataclasses

    import drbcd.driver as driver

    sweep = driver.bcd_dr_sweep

    def rises_at_sweep_3(problem, blocks, n, cfg):
        blocks, record = sweep(problem, blocks, n, cfg)
        if n == 3:
            record = dataclasses.replace(record, objective=2.0 * record.objective + 1.0)
        return blocks, record

    argv = ["--shape", "6,7,5", "--rank", "2", "--algo", "als_dr-0.5", "--algo", "als",
            "--algo", "mu", "--runs", "2", "--max-sweeps", "5", "--serial", "--clock", "sweep"]
    assert main(argv + ["--out", str(tmp_path / "clean")]) == 0
    assert "INVARIANT" not in capsys.readouterr().out

    monkeypatch.setattr(driver, "bcd_dr_sweep", rises_at_sweep_3)
    assert main(argv + ["--out", str(tmp_path / "broken")]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("INVARIANT")]
    assert [l.split(" (worst excess")[0] for l in lines] == [
        f"INVARIANT {label} run {k}: monotone descent broken at sweep 3"
        for label in ("als_dr-0.5", "als")
        for k in (1, 2)
    ]

    cfg, _ = parse_config(argv + ["--out", str(tmp_path / "summary")])
    violations = run_experiment(cfg).violations
    assert {(v.algorithm, v.check, v.sweep) for v in violations} == {
        ("als_dr-0.5", "monotone descent", 3), ("als", "monotone descent", 3)
    }
    assert all(v.excess > 0.0 for v in violations)


@pytest.mark.parametrize(
    "factor, checks",
    [(2.0, ("radius bound",)), (1e3, ("radius bound", "square-sum bound"))],
)
def test_report_lists_steps_beyond_the_radius(tmp_path, monkeypatch, capsys, factor, checks):
    # A wrapped sweep records the first block's step at sweep 3 as `factor`
    # times the radius of every radius-restricted run. Twice the radius
    # breaks the radius bound alone; a thousand times it also carries the
    # squared steps past m c'^2 sum w_n^2. Plain ALS, with an infinite
    # radius, is left as it is and stays clean.
    import dataclasses

    import drbcd.driver as driver

    sweep = driver.bcd_dr_sweep

    def inflates_step_at_sweep_3(problem, blocks, n, cfg):
        blocks, record = sweep(problem, blocks, n, cfg)
        if n == 3 and math.isfinite(record.radius):
            steps = (factor * record.radius,) + record.block_step_norms[1:]
            record = dataclasses.replace(record, block_step_norms=steps)
        return blocks, record

    monkeypatch.setattr(driver, "bcd_dr_sweep", inflates_step_at_sweep_3)
    argv = ["--shape", "6,7,5", "--rank", "2", "--algo", "als_dr-0.5", "--algo", "als",
            "--runs", "2", "--max-sweeps", "5", "--serial", "--clock", "sweep"]
    assert main(argv + ["--out", str(tmp_path / "broken")]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("INVARIANT")]
    assert [l.split(" (worst excess")[0] for l in lines] == [
        f"INVARIANT als_dr-0.5 run {k}: {check} broken at sweep 3" for k in (1, 2) for check in checks
    ]

    cfg, _ = parse_config(argv + ["--out", str(tmp_path / "summary")])
    violations = run_experiment(cfg).violations
    assert [(v.algorithm, v.run_index, v.check, v.sweep) for v in violations] == [
        ("als_dr-0.5", k, check, 3) for k in (1, 2) for check in checks
    ]
    spec = cfg.algos[0]
    radius_3 = RadiusSchedule(kind="power_log", beta=spec.beta, c_prime=spec.c_prime).radius(3)
    for v in violations:
        if v.check == "radius bound":
            assert v.excess == pytest.approx((factor - 1.0 - 1e-12) * radius_3, rel=1e-12)
        else:
            assert v.excess > 0.0


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
        rel = summary.tallies[label].final_errors[0] / data_norm
        assert rel <= 1e-2, (label, rel)


def test_run_experiment_records_failures(tmp_path, monkeypatch):
    cfg = desk_config(tmp_path)

    def boom(problem, blocks0, solver_cfg):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(experiment, "run", boom)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["--algo", "als_dr-2"],
        ["--max-sweeps", "0"],
        ["--max-seconds", "0"],
        ["--log-offset", "0"],
        ["--init-scale", "1000"],
        ["--box-bound", "-1"],
        ["--rank", "9", "--shape", "4,5,6"],
        ["--data", "surrogate", "--density", "0"],
        ["--data", "file:missing.ntf1"],
    ],
    ids=["beta", "max_sweeps", "max_seconds", "log_offset", "init_scale", "box_bound",
         "rank", "density", "file"],
)
def test_cli_bad_setting_exits_2_before_writing(tmp_path, monkeypatch, capsys, argv):
    # Each setting passes parse_config but cannot run: it fails once, before
    # any run, and nothing is written.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "exp"
    base = ["--rank", "2", "--shape", "5,6,4", "--runs", "2", "--max-sweeps", "3",
            "--clock", "sweep", "--out", str(out)]
    parse_config(base + argv)
    assert main(base + argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("drbcd: error: "), captured.err
    assert "Traceback" not in captured.err and "FAILED" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("data, code", [("surrogate", 0), ("synth", 2)])
def test_cli_checks_the_rank_only_where_the_data_reads_it(tmp_path, capsys, data, code):
    # The surrogate never reads the rank, so a rank above the shortest mode
    # factorizes it, as it would the same tensor read from a file; the
    # low-rank data is generated at that rank and cannot be.
    out = tmp_path / "exp"
    argv = ["--data", data, "--rank", "6", "--shape", "5,5,5", "--density", "0.5",
            "--runs", "1", "--max-sweeps", "2", "--clock", "sweep", "--serial", "--out", str(out)]
    if data == "synth":
        argv.remove("--density")
        argv.remove("0.5")
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert "rank must lie in [1, min(dims)]" in err and not out.exists()
    else:
        assert "error" not in err and (out / "config.txt").exists()


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


def test_cli_refuses_an_ntf1_header_larger_than_its_file(tmp_path, capsys):
    # A 40-byte file whose header claims 10^15 entries: one error line and
    # exit 2, not an allocation of 7.1 PiB.
    path = tmp_path / "huge.ntf1"
    path.write_bytes(b"NTF1" + struct.pack("<I3Q", 3, 10**5, 10**5, 10**5) + bytes(8))
    out = tmp_path / "exp"
    assert main(["--data", f"file:{path}", "--rank", "2", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("drbcd: error: ")
    assert "truncated NTF1 payload" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("source", ["surrogate", "file"])
def test_save_data_round_trips_sparse_data(tmp_path, source):
    # The problem holds sparse data as its nonzeros alone; the file it saves
    # is the input again, with a -0.0 written as +0.0.
    from drbcd.tensors import read_ntf1, write_ntf1

    argv = ["--rank", "2", "--runs", "1", "--max-sweeps", "2", "--clock", "sweep", "--serial",
            "--save-data", "--out", str(tmp_path / "exp")]
    if source == "surrogate":
        argv += ["--data", "surrogate", "--shape", "6,7,8", "--density", "0.03"]
        data = experiment.resolve_data(parse_config(argv)[0])
    else:
        data = np.zeros((6, 7, 8))
        data.flat[[5, 40, 41, 300]] = [0.25, 1.0, -0.0, 3.5]
        path = tmp_path / "data.ntf1"
        write_ntf1(path, data)
        argv += ["--data", f"file:{path}"]
    assert NtfProblem(data, 2)._coo is not None
    assert main(argv) == 0
    saved = read_ntf1(tmp_path / "exp" / "data.ntf1")
    assert_array_equal(saved, data)
    assert not np.signbit(saved).any()
    if source == "surrogate":
        assert saved.tobytes() == data.tobytes()


def test_save_data_emits_ntf1(tmp_path):
    from drbcd.tensors import read_ntf1

    cfg = desk_config(tmp_path, save_data=True, runs=1, max_sweeps=2)
    run_experiment(cfg)
    saved = read_ntf1(cfg.out + "/data.ntf1")
    assert saved.shape == cfg.shape
