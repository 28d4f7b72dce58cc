import dataclasses
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import drbcd.experiment as experiment
from drbcd.cli import build_parser, main, parse_config, read_config_file
from drbcd.datagen import SynthSpec, synthetic_lowrank
from drbcd.driver import TraceRecord, run
from drbcd.factorization import NtfProblem, run_mu
from drbcd.schedule import RadiusSchedule
from drbcd.subsolver import MAX_RANK
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
from drbcd.tensors import SparseTensor, read_ntf1, write_ntf1

from _oracles import locf_aggregate


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
    assert spec.name == "als_dr" and spec.beta == 0.5 and cfg.c_prime == 1e5
    assert spec.label == "als_dr-0.5"


def test_parse_config_missing_rank_names_rank(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--algo", "als"])
    assert "rank" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["--algo", "als"], "rank"),
    (["--rank", "2", "--algo", "mu", "--c-prime", "3"], "c-prime"),
])
def test_cli_setting_error_is_one_line(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("drbcd: error: ") and named in lines[0]


def test_cli_syntax_error_keeps_the_usage_block(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--rank", "2", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: drbcd") and "unrecognized arguments: --bogus" in err


def test_parse_config_flag_overrides_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("rank = 4\nruns = 3\nseed = 9\n")
    cfg, notes = parse_config(["--config", str(cfg_file), "--rank", "2"])
    assert cfg.rank == 2
    assert cfg.runs == 3 and cfg.seed == 9
    assert any("rank" in n for n in notes)


@pytest.mark.parametrize("line, message", [
    ("rank 2", "expected 'key = value', got 'rank 2'"),
    ("runs = many", "runs: invalid literal for int() with base 10: 'many'"),
])
def test_cli_refuses_a_config_line_it_cannot_read(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"algo = als\n{line}\n")
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg_file), "--rank", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [f"drbcd: error: {cfg_file}:2: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--rank", "0"], "rank must be a positive integer, got 0"),
    (["--rank", "2", "--runs", "0"], "runs must be at least 1, got 0"),
    (["--rank", "2", "--data", "tensor.npy"], "data must be 'synth', 'surrogate', or 'file:PATH', got 'tensor.npy'"),
    (["--rank", "2", "--clock", "cpu"], "clock must be 'wall' or 'sweep', got 'cpu'"),
    (["--rank", "2", "--bins", "0"], "bins must be at least 1, got 0"),
])
def test_cli_refuses_a_setting_out_of_its_range(tmp_path, capsys, argv, message):
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [f"drbcd: error: {message}"]
    assert not out.exists()


def test_config_needs_an_algorithm():
    # The CLI always has one: no --algo runs the default list.
    with pytest.raises(ValueError, match="^at least one algorithm is required$"):
        ExperimentConfig(rank=2, algos=[])


def test_parse_config_rejects_unknown_key(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("rank = 2\nbogus = 1\n")
    with pytest.raises(SystemExit):
        parse_config(["--config", str(cfg_file)])
    assert "bogus" in capsys.readouterr().err


def test_parse_config_paper_scale_preset(tmp_path):
    cfg, _ = parse_config(["--paper-scale", "--rank", "5"])
    assert cfg.shape == (100, 200, 300)
    assert cfg.runs == 10
    assert [a.label for a in cfg.algos] == ["als_dr-0.5", "als_dr-1", "als", "mu"]
    # Explicit flags still win over the preset.
    cfg2, _ = parse_config(["--paper-scale", "--rank", "5", "--runs", "2"])
    assert cfg2.runs == 2
    # File data does not read the preset's shape: it is dropped, not refused.
    path = tmp_path / "d.ntf1"
    write_ntf1(path, synthetic_lowrank(SynthSpec(dims=(4, 5, 6), rank=2, seed=1))[0])
    out = tmp_path / "exp"
    argv = ["--paper-scale", "--data", f"file:{path}", "--runs", "1", "--max-sweeps", "2",
            "--clock", "sweep", "--out", str(out)]
    assert main(argv) == 0
    keys = [l.split(" = ")[0] for l in (out / "config.txt").read_text().splitlines()[1:]]
    assert "shape" not in keys and "rank" in keys
    assert parse_config(argv)[0] == parse_config(["--config", str(out / "config.txt")])[0]


def test_parse_config_inline_beta_tokens():
    cfg, _ = parse_config(
        ["--rank", "2", "--algo", "als_dr-0.5", "--algo", "als_dr-1", "--c-prime", "100"]
    )
    assert [a.beta for a in cfg.algos] == [0.5, 1.0]
    assert cfg.c_prime == 100


def test_parse_config_c_prime_reaches_default_entries(tmp_path, capsys):
    out = tmp_path / "exp"
    argv = [
        "--data", "surrogate", "--c-prime", "3", "--rank", "5", "--runs", "2",
        "--max-sweeps", "10", "--clock", "sweep", "--out", str(out),
    ]
    cfg, _ = parse_config(argv)
    assert [a.label for a in cfg.algos] == ["als_dr-0.5", "als_dr-1", "als", "mu"]
    assert cfg.c_prime == 3.0
    assert main(argv) == 0
    assert "c-prime = 3" in (out / "config.txt").read_text().splitlines()
    report = capsys.readouterr().out
    assert "INVARIANT" not in report
    for label in ("als_dr-0.5", "als_dr-1"):
        line = next(l for l in report.splitlines() if l.startswith(f"{label}:"))
        short = int(line.split(" of 20 sweeps short")[0].rsplit(", ", 1)[1])
        assert short > 0, line


@pytest.mark.parametrize(
    "argv, key, reader",
    [
        (["--data", "file:{tmp}/d.ntf1", "--shape", "9,9,9"], "shape", "--data synth or --data surrogate"),
        (["--data", "synth", "--log-y"], "log-y", "--plot"),
        (["--data", "surrogate", "--noise-level", "5"], "noise-level", "--data synth"),
        (["--data", "synth", "--density", "0"], "density", "--data surrogate"),
        (["--algo", "als", "--log-offset", "0"], "log-offset", "--algo als_dr"),
        (["--algo", "als", "--algo", "mu", "--c-prime", "3"], "c-prime", "--algo als_dr"),
        (["--beta", "0.7"], "beta", "--algo als_dr"),
        (["--algo", "als_dr-0.5", "--beta", "0.7"], "beta", "--algo als_dr"),
        (["--paper-scale", "--beta", "0.7"], "beta", "--algo als_dr"),
    ],
)
@pytest.mark.parametrize("via", ["flags", "config"])
def test_cli_refuses_a_setting_nothing_reads(tmp_path, capsys, argv, key, reader, via):
    # config.txt would record a value that no part of the run read.
    write_ntf1(tmp_path / "d.ntf1", synthetic_lowrank(SynthSpec(dims=(4, 5, 6), rank=2, seed=1))[0])
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if via == "config":
        pairs = []
        for arg in argv:
            if arg.startswith("--"):
                pairs.append([arg[2:], "true"])
            else:
                pairs[-1][1] = arg
        (tmp_path / "exp.cfg").write_text("".join(f"{k} = {v}\n" for k, v in pairs))
        argv = ["--config", str(tmp_path / "exp.cfg")]
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main(["--rank", "2", "--runs", "1", "--max-sweeps", "2", "--out", str(out), *argv])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("drbcd: error:")]
    assert errors == [f"drbcd: error: {key} is not read: only {reader} reads it"]
    assert not out.exists()


# config.txt as written before the reading rule, with a line for every
# field, read or not; each case names the lines that its run does not read.
_OLD_TAIL = """runs = 1
seed = 0
max-sweeps = 2
max-seconds = 60
out = exp
plot = false
clock = sweep
log-y = false
noise-level = {noise}
density = 0.01
mean-abs = 0.00067000000000000002
log-offset = 1
init-scale = 1
save-data = false
bins = 50
"""
_OLD_CONFIGS = [
    (
        ["--data", "synth", "--shape", "6,7,5", "--noise-level", "0.1", "--algo", "als_dr-0.5",
         "--algo", "als"],
        "data = synth\nshape = 6,7,5\nrank = 2\nalgo = als_dr-0.5\nalgo = als\nc-prime = 100000\n"
        + _OLD_TAIL.format(noise="0.10000000000000001"),
        {"log-y", "density", "mean-abs"},
    ),
    (
        ["--data", "surrogate", "--c-prime", "3"],
        "data = surrogate\nshape = 90,500,100\nrank = 2\nalgo = als_dr-0.5\nalgo = als_dr-1\n"
        "algo = als\nalgo = mu\nc-prime = 3\n" + _OLD_TAIL.format(noise="0"),
        {"log-y", "noise-level"},
    ),
    (
        ["--data", "file:data.ntf1", "--algo", "als", "--algo", "mu"],
        "data = file:data.ntf1\nshape = 20,25,30\nrank = 2\nalgo = als\nalgo = mu\n"
        + _OLD_TAIL.format(noise="0"),
        {"shape", "log-y", "noise-level", "density", "mean-abs", "log-offset"},
    ),
]


@pytest.mark.parametrize("argv, text, unread", _OLD_CONFIGS, ids=["synth", "surrogate", "file"])
def test_an_older_config_txt_with_defaults_in_unread_lines_still_loads(tmp_path, argv, text, unread):
    path = tmp_path / "config.txt"
    path.write_text("# resolved experiment configuration\n" + text)
    cfg, _ = parse_config(
        ["--rank", "2", "--runs", "1", "--max-sweeps", "2", "--clock", "sweep",
         "--out", "exp", *argv]
    )
    assert parse_config(["--config", str(path)])[0] == cfg
    old = text.splitlines()
    assert cfg.provenance_lines()[1:] == [l for l in old if l.split(" = ")[0] not in unread]


def test_help_names_what_reads_each_option():
    text = " ".join(build_parser().format_help().split())
    assert "surrogate nonzero probability (read with --data surrogate)" in text
    for opt in OPTIONS:
        suffix = f" (read with {' or '.join(opt.read_with)})" if opt.read_with else ""
        assert " ".join((opt.help + suffix).split()) in text, opt.key


def test_parse_config_bare_als_dr_takes_beta_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("algo = als_dr\nalgo = als_dr-1\nbeta = 0.7\nc-prime = 2\n")
    cfg, _ = parse_config(["--rank", "2", "--config", str(path)])
    assert [a.beta for a in cfg.algos] == [0.7, 1.0]
    assert cfg.c_prime == 2.0


def test_read_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(rank=2, shape=(4, 5, 6), runs=2, clock="sweep", save_data=True)
    text = "\n".join(cfg.provenance_lines()) + "\n"
    path = tmp_path / "config.txt"
    path.write_text(text)
    values = read_config_file(path)
    assert values["rank"] == 2
    assert values["shape"] == (4, 5, 6)
    assert values["clock"] == "sweep"
    assert values["save-data"] is True
    assert values["algo"] == ["als_dr-0.5", "als_dr-1", "als", "mu"]


def test_config_txt_records_numpy_and_the_blas_build_where_config_skips_them(tmp_path):
    out = tmp_path / "exp"
    argv = ["--data", "surrogate", "--shape", "6,7,8", "--rank", "2", "--algo", "mu",
            "--runs", "1", "--max-sweeps", "2", "--clock", "sweep", "--out", str(out)]
    assert main(argv) == 0
    lines = (out / "config.txt").read_text(encoding="ascii").splitlines()
    blas = experiment._blas_build() or "build unknown"
    assert lines[:3] == ["# resolved experiment configuration", f"# numpy {np.__version__}", f"# BLAS {blas}"]
    assert parse_config(["--config", str(out / "config.txt")])[0] == parse_config(argv)[0]


@st.composite
def config_fields(draw):
    """The data kind, the algorithms and the plot switch, then every field
    that they read, drawn over its whole type; the fields nothing reads keep
    their defaults. NaN is left out because it never equals itself."""
    floats = st.floats(allow_nan=False)
    # Mostly printable ASCII, with the characters config.txt cannot hold.
    text = st.text(st.characters(min_codepoint=32, max_codepoint=126) | st.sampled_from("#\n\t\u00e9"))
    algo = st.one_of(
        st.builds(AlgorithmSpec, st.just("als_dr"), floats),
        st.sampled_from([AlgorithmSpec("als"), AlgorithmSpec("mu")]),
    )
    drawn = dict(
        data=draw(st.sampled_from(["synth", "surrogate"]) | text.map("file:".__add__)),
        algos=draw(st.lists(algo, min_size=1, max_size=4, unique_by=lambda a: a.label)),
        plot=draw(st.booleans()),
    )
    strategies = dict(
        # ExperimentConfig refuses a larger rank, so one could never reach
        # the round trip: drawing it only made Hypothesis reject the example.
        rank=st.integers(min_value=1, max_value=MAX_RANK),
        shape=st.lists(st.integers(), max_size=4).map(tuple),
        runs=st.integers(min_value=1),
        seed=st.integers(),
        max_sweeps=st.integers(),
        max_seconds=floats,
        box_bound=st.none() | floats,
        out=text,
        clock=st.sampled_from(["wall", "sweep"]),
        log_y=st.booleans(),
        noise_level=floats,
        density=floats,
        mean_abs=floats,
        c_prime=floats,
        log_offset=st.integers(),
        init_scale=floats,
        save_data=st.booleans(),
        bins=st.integers(min_value=1),
    )
    assert set(strategies) | set(drawn) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    present = experiment.readers(drawn["data"], drawn["algos"], ["plot"] if drawn["plot"] else [])
    for attr, strategy in strategies.items():
        opt = next(opt for opt in OPTIONS if opt.attr == attr)
        if opt.read_by(present):
            drawn[attr] = draw(strategy)
    return drawn


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fields=config_fields())
def test_config_txt_parses_back_to_an_equal_config(fields):
    try:
        cfg = ExperimentConfig(**fields)
    except ValueError as exc:
        # The strategy draws only what the config reads.
        assert "is not read" not in str(exc)
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.txt"
        # Written as run_experiment writes it.
        path.write_text("\n".join(cfg.provenance_lines()) + "\n", encoding="ascii")
        back, notes = parse_config(["--config", str(path)])
    assert back == cfg
    assert notes == []
    # No line for a setting that the config does not read.
    present = experiment.readers(cfg.data, cfg.algos, ["plot"] if cfg.plot else [])
    keys = {line.split(" = ")[0] for line in cfg.provenance_lines()[1:]}
    assert all(opt.read_by(present) for opt in OPTIONS if opt.key in keys)


def test_config_rejects_what_config_txt_cannot_hold(capsys):
    with pytest.raises(ValueError, match="duplicate algorithm labels: als_dr-0.5"):
        ExperimentConfig(rank=2, algos=[AlgorithmSpec("als_dr", 0.5)] * 2)
    # Distinct betas, one label: their trace files would collide.
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig(
            rank=2,
            algos=[AlgorithmSpec("als_dr", 0.1234567), AlgorithmSpec("als_dr", 0.1234568)],
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
    curve = aggregate_runs(traces, 2)
    assert_array_equal(curve.bin_centers, [0.5, 1.0])
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
    curve = aggregate_runs({"als": [trace]}, 6)
    assert_array_equal(curve.bin_centers, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert_allclose(curve.mean["als"], [10.0, 5.0, 5.0, 5.0, 5.0, 2.0])


def test_aggregate_refuses_an_empty_trace():
    traces = {"als": [trace_from_errors([(0.0, 1.0)]), []]}
    with pytest.raises(ValueError, match="als run 1: empty trace"):
        aggregate_runs(traces, 1)


@pytest.mark.parametrize("centers, std, message", [
    ([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], "^bin centers must be strictly increasing$"),
    ([0.0, 1.0, 2.0], [0.0, -1e-9, 0.0], "^negative std in aggregate for als$"),
])
def test_aggregate_curve_refuses_bins_out_of_order_and_negative_spread(centers, std, message):
    with pytest.raises(ValueError, match=message):
        experiment.AggregateCurve(
            bin_centers=np.array(centers), mean={"als": np.ones(3)}, std={"als": np.array(std)},
            n_runs={"als": np.ones(3, dtype=int)},
        )


def random_traces(rng):
    """Traces of one to three algorithms, one to twelve runs each, on the
    sweep clock or on wall-clock times with ties; a run may start late."""
    out = {}
    for label in ["als_dr-0.5", "als", "mu"][: rng.integers(1, 4)]:
        runs = []
        for _ in range(rng.integers(1, 13)):
            size = int(rng.integers(1, 20))
            if rng.random() < 0.3:
                times = np.arange(size, dtype=np.float64)
            else:
                steps = rng.exponential(size=size) * (rng.random(size) < 0.8)
                times = np.cumsum(steps) + rng.random() * 3.0
            errors = rng.random(size) * 10.0 ** rng.integers(-8, 2)
            runs.append(trace_from_errors(zip(times, errors)))
        out[label] = runs
    return out


def test_aggregate_matches_the_per_bin_scan_bit_for_bit():
    rng = np.random.default_rng(2024)
    late = 0
    for _ in range(300):
        traces = random_traces(rng)
        curve = aggregate_runs(traces, int(rng.integers(1, 60)))
        mean, std, n_runs = locf_aggregate(traces, curve.bin_centers)
        assert curve.algorithms == list(traces)
        for label in traces:
            assert curve.mean[label].tobytes() == mean[label].tobytes()
            assert curve.std[label].tobytes() == std[label].tobytes()
            assert_array_equal(curve.n_runs[label], n_runs[label], strict=True)
            late += int(np.any(n_runs[label] < len(traces[label])))
    # Some runs start after a bin, where they do not count.
    assert late > 0


def test_aggregate_requires_some_trace():
    with pytest.raises(ValueError):
        aggregate_runs({"als": [[]]}, 3)


# ---------------------------------------------------------------------------
# SVG plotting


def test_svg_structure_one_algorithm(tmp_path):
    trace = trace_from_errors([(0.0, 4.0), (1.0, 2.0)])
    curve = aggregate_runs({"als": [trace, trace]}, 2)
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


@pytest.mark.parametrize("mean, log_y, message", [
    ([math.nan, math.nan], False, "^aggregate curve has no finite values to plot$"),
    ([0.0, 0.0], True, "^log scale requested but no positive values present$"),
])
def test_svg_refuses_a_curve_it_cannot_scale(tmp_path, mean, log_y, message):
    curve = experiment.AggregateCurve(
        bin_centers=np.array([0.5, 1.0]), mean={"als": np.array(mean)}, std={"als": np.zeros(2)},
        n_runs={"als": np.ones(2, dtype=int)},
    )
    path = tmp_path / "nope.svg"
    with pytest.raises(ValueError, match=message):
        emit_svg_plot(curve, path, log_y=log_y)
    assert not path.exists()


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


def test_threaded_run_matches_serial_bytes(tmp_path):
    # Pool threads share one problem and its per-thread memo (and, on the
    # sparse surrogate, its coordinate list and per-thread scratch) and each
    # run index's read-only start; more threads than cores and a short
    # switch interval interleave them. Their trace CSVs match the CLI's.
    algos = [AlgorithmSpec("als_dr", 0.5), AlgorithmSpec("als"), AlgorithmSpec("mu")]
    for data, shape in [("synth", (8, 9, 10)), ("surrogate", (10, 50, 12))]:
        out = tmp_path / data
        cfg = desk_config(
            tmp_path, data=data, shape=shape, algos=algos, c_prime=1.0, runs=3, max_sweeps=15,
            out=str(out / "serial"),
        )
        serial = run_experiment(cfg)
        assert not serial.failures
        problem = NtfProblem(experiment.resolve_data(cfg), cfg.rank)
        assert (problem._coo is not None) == (data == "surrogate")
        starts = {k: experiment._start(problem, cfg, k) for k in range(1, cfg.runs + 1)}
        (out / "threaded").mkdir()

        def write(cell):
            algo, k = cell
            solve = run_mu if algo.name == "mu" else run
            trace = solve(problem, starts[k], experiment._solver_config(cfg, algo))[1]
            path = out / "threaded" / f"{algo.label}_run{k}.csv"
            experiment.write_trace_csv(path, k, trace)
            return (algo.label, k), path

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = dict(pool.map(write, [(algo, k) for algo in algos for k in starts], timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(threaded) == sorted(serial.trace_paths)
        for key, path in serial.trace_paths.items():
            assert threaded[key].read_bytes() == path.read_bytes(), key


@pytest.mark.parametrize("c_prime, binds", [(1e5, False), (1.0, True)])
def test_report_counts_short_sweeps(tmp_path, c_prime, binds):
    cfg = desk_config(
        tmp_path,
        shape=(5, 6, 4),
        algos=[AlgorithmSpec("als_dr", 0.5), AlgorithmSpec("als")],
        c_prime=c_prime,
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


@pytest.mark.parametrize("counts, build, line", [
    ((2, 2, 1), "scipy-openblas 0.3.31.188.0",
     "dense passes and set-up: up to 2 threads (2 cores, 1 BLAS thread, scipy-openblas 0.3.31.188.0)"),
    ((1, 4, 8), "openblas 0.3.27",
     "dense passes and set-up: up to 1 thread (4 cores, 8 BLAS threads, openblas 0.3.27)"),
    ((1, 1, None), None,
     "dense passes and set-up: up to 1 thread (1 core, BLAS thread count unknown, BLAS build unknown)"),
])
def test_report_gives_the_dense_passes_threads(tmp_path, monkeypatch, counts, build, line):
    summary = run_experiment(desk_config(tmp_path, runs=1, max_sweeps=1))
    here = next(l for l in summary.report().splitlines() if l.startswith("dense passes and set-up: "))
    assert experiment._blas_build() is None or here.endswith(f", {experiment._blas_build()})")
    monkeypatch.setattr(experiment, "_pass_threads", lambda: counts)
    monkeypatch.setattr(experiment, "_blas_build", lambda: build)
    assert line in summary.report().splitlines()


def test_blas_build_is_what_numpy_was_built_with(monkeypatch):
    deps = {"Build Dependencies": {"blas": {"name": "scipy-openblas", "version": "0.3.31.188.0"}}}
    monkeypatch.setattr(np, "show_config", lambda mode=None: deps)
    assert experiment._blas_build() == "scipy-openblas 0.3.31.188.0"
    deps["Build Dependencies"]["blas"] = {"name": "accelerate"}
    assert experiment._blas_build() == "accelerate"
    deps["Build Dependencies"] = {}
    assert experiment._blas_build() is None

    def before_1_26():  # takes no mode
        return None

    monkeypatch.setattr(np, "show_config", before_1_26)
    assert experiment._blas_build() is None


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
    import drbcd.driver as driver

    sweep = driver.bcd_dr_sweep

    def rises_at_sweep_3(problem, blocks, n, cfg):
        blocks, record = sweep(problem, blocks, n, cfg)
        if n == 3:
            record = dataclasses.replace(record, objective=2.0 * record.objective + 1.0)
        return blocks, record

    argv = ["--shape", "6,7,5", "--rank", "2", "--algo", "als_dr-0.5", "--algo", "als",
            "--algo", "mu", "--runs", "2", "--max-sweeps", "5", "--clock", "sweep"]
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
            "--runs", "2", "--max-sweeps", "5", "--clock", "sweep"]
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
    radius_3 = RadiusSchedule(kind="power_log", beta=spec.beta, c_prime=cfg.c_prime).radius(3)
    for v in violations:
        if v.check == "radius bound":
            assert v.excess == pytest.approx((factor - 1.0 - 1e-12) * radius_3, rel=1e-12)
        else:
            assert v.excess > 0.0


def test_run_experiment_reaches_optimum_on_noiseless_data(tmp_path):
    cfg = desk_config(
        tmp_path,
        algos=[AlgorithmSpec("als_dr", 0.5), AlgorithmSpec("als")],
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
    failed = [l for l in summary.report().splitlines() if l.startswith("FAILED")]
    assert failed == ["FAILED als run 1: synthetic failure", "FAILED als run 2: synthetic failure"]


def test_cli_main_exit_codes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "cli_exp"
    code = main(
        [
            "--data", "synth", "--shape", "5,6,4", "--rank", "2",
            "--algo", "mu", "--runs", "1", "--max-sweeps", "3",
            "--out", str(out), "--clock", "sweep",
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
        ["--data", "surrogate", "--shape", "5,6,4", "--density", "0"],
        ["--data", "file:missing.ntf1"],
        ["--c-prime", "nan"],
        ["--init-scale", "nan"],
    ],
    ids=["beta", "max_sweeps", "max_seconds", "log_offset", "init_scale", "box_bound",
         "rank", "density", "file", "c_prime_nan", "init_scale_nan"],
)
def test_cli_bad_setting_exits_2_before_writing(tmp_path, monkeypatch, capsys, argv):
    # Each setting passes parse_config but cannot run: it fails once, before
    # any run, and nothing is written.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "exp"
    base = ["--rank", "2", "--runs", "2", "--max-sweeps", "3", "--clock", "sweep", "--out", str(out)]
    parse_config(base + argv)
    assert main(base + argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("drbcd: error: "), captured.err
    assert "Traceback" not in captured.err and "FAILED" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_refuses_the_removed_serial_switch(tmp_path, capsys, via):
    # The cells always run one after another: the switch is unknown.
    out = tmp_path / "exp"
    argv = ["--rank", "2", "--runs", "1", "--max-sweeps", "2", "--out", str(out)]
    if via == "flag":
        argv.append("--serial")
    else:
        (tmp_path / "exp.cfg").write_text("serial = true\n")
        argv += ["--config", str(tmp_path / "exp.cfg")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "serial" in capsys.readouterr().err
    assert not out.exists()


CLI_RUN = r"""
import sys, threading
from drbcd.cli import main
code = main(sys.argv[1:])
print(code, threading.active_count(), "concurrent.futures" in sys.modules)
"""


def test_a_cli_run_takes_no_thread_at_the_default_blas_threads(tmp_path):
    # The cells run in the calling thread, and a desk-sized pass is one slab.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(experiment.__file__).resolve().parents[1])
    argv = ["--rank", "3", "--runs", "2", "--max-sweeps", "3", "--clock", "sweep", "--out", str(tmp_path / "exp")]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUN, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split()[-3:] == ["0", "1", "False"]


def test_cli_refuses_a_rank_above_the_exact_solves_limit(tmp_path, capsys):
    # Every exact block solve of rank 63 would fail and fall back to
    # projected gradient from its start; 62 is the limit.
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        main(["--data", "synth", "--shape", "64,64,64", "--rank", "63", "--out", str(out)])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error" in l]
    assert errors == ["drbcd: error: rank must be at most 62, the exact block solve's limit, got 63"]
    assert not out.exists()
    cfg, _ = parse_config(["--data", "synth", "--shape", "64,64,64", "--rank", "62", "--out", str(out)])
    assert cfg.rank == 62


def test_cli_runs_mu_alone_above_the_exact_solves_limit(tmp_path, capsys):
    # MU solves no block QP, so the exact solve's limit does not bind it.
    out = tmp_path / "exp"
    argv = ["--data", "synth", "--shape", "64,65,66", "--rank", "63", "--algo", "mu",
            "--runs", "1", "--max-sweeps", "2", "--out", str(out)]
    assert main(argv) == 0
    assert "error" not in capsys.readouterr().err
    assert (out / "mu_run1.csv").exists()


@pytest.mark.parametrize("data, code", [("surrogate", 0), ("synth", 2)])
def test_cli_checks_the_rank_only_where_the_data_reads_it(tmp_path, capsys, data, code):
    # The surrogate never reads the rank, so a rank above the shortest mode
    # factorizes it, as it would the same tensor read from a file; the
    # low-rank data is generated at that rank and cannot be.
    out = tmp_path / "exp"
    argv = ["--data", data, "--rank", "6", "--shape", "5,5,5", "--density", "0.5",
            "--runs", "1", "--max-sweeps", "2", "--clock", "sweep", "--out", str(out)]
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
    data, _ = synthetic_lowrank(SynthSpec(dims=(5, 4, 6), rank=2, seed=3))
    path = tmp_path / "data.ntf1"
    write_ntf1(path, data)
    out = tmp_path / "exp"
    code = main(
        [
            "--data", f"file:{path}", "--rank", "2", "--algo", "als",
            "--runs", "1", "--max-sweeps", "3", "--out", str(out),
            "--clock", "sweep",
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


def test_cli_refuses_a_pipe_whose_header_cannot_be_allocated(tmp_path, capsys):
    # A pipe has no size to check its header against: a header claiming
    # 10^6 x 10^6 x 10^3 entries (7.1 PiB, above any address space) fails
    # at the allocation, and that is one error line and exit 2.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    header = b"NTF1" + struct.pack("<I3Q", 3, 10**6, 10**6, 10**3)
    writer = threading.Thread(target=fifo.write_bytes, args=(header,), daemon=True)
    writer.start()
    out = tmp_path / "exp"
    try:
        assert main(["--data", f"file:{fifo}", "--rank", "2", "--out", str(out)]) == 2
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("drbcd: error: ")
    assert "7.11 PiB" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "message, line",
    [("Unable to allocate 14.6 TiB for an array", "Unable to allocate 14.6 TiB for an array"),
     ("", "MemoryError")],
)
def test_cli_refuses_data_too_large_to_generate(tmp_path, capsys, monkeypatch, message, line):
    # numpy names the allocation it could not make; Python's own
    # MemoryError, as from a list that outgrows memory, has no message.
    def boom(spec):
        raise MemoryError(message)

    monkeypatch.setattr(experiment, "synthetic_lowrank", boom)
    out = tmp_path / "exp"
    argv = ["--data", "synth", "--shape", "1000000,1000000,1000000", "--rank", "2",
            "--runs", "1", "--max-sweeps", "1", "--out", str(out)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"drbcd: error: {line}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["surrogate", "file"])
def test_save_data_round_trips_sparse_data(tmp_path, source):
    # The problem holds sparse data as its nonzeros alone; the file it saves
    # is the input again, with a -0.0 written as +0.0.
    argv = ["--rank", "2", "--runs", "1", "--max-sweeps", "2", "--clock", "sweep",
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
    if isinstance(data, SparseTensor):
        data = data.dense()
    assert main(argv) == 0
    saved = read_ntf1(tmp_path / "exp" / "data.ntf1")
    assert_array_equal(saved, data)
    assert not np.signbit(saved).any()
    if source == "surrogate":
        assert saved.tobytes() == data.tobytes()


def test_save_data_emits_ntf1(tmp_path):
    cfg = desk_config(tmp_path, save_data=True, runs=1, max_sweeps=2)
    run_experiment(cfg)
    saved = read_ntf1(cfg.out + "/data.ntf1")
    assert saved.shape == cfg.shape
