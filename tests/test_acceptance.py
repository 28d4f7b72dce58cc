"""Acceptance gates: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The paper-scale artifact
gate (criterion 9) runs the full-size benchmark and takes ~10-15 minutes on
one core; everything else finishes in well under the per-criterion budgets.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from drbcd.cli import main, parse_config
from drbcd.datagen import SynthSpec, synthetic_lowrank
from drbcd.driver import SolverConfig, run, stationarity_measure, verify_trace
from drbcd.experiment import run_experiment
from drbcd.factorization import NtfProblem, init_factors, mu_sweep
from drbcd.schedule import RadiusSchedule
from drbcd.subsolver import (
    BoxBallFeasibleSet,
    QuadraticBlockSubproblem,
    project_box_ball,
    solve_block_qp,
)


def report(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared runs for criteria 1-3: 20 random instances, dims <= (10, 12, 14),
# rank <= 3, beta in {0.5, 1}, c' in {1, 1e5}.


@pytest.fixture(scope="module")
def descent_runs():
    rng = np.random.default_rng(20240)
    runs = []
    for k in range(20):
        dims = (
            int(rng.integers(5, 11)),
            int(rng.integers(6, 13)),
            int(rng.integers(7, 15)),
        )
        rank = int(rng.integers(1, 4))
        beta = 0.5 if k % 2 == 0 else 1.0
        c_prime = 1.0 if (k // 2) % 2 == 0 else 1e5
        if k % 3 == 0:
            data = rng.random(dims)  # full-rank noise tensor
        else:
            data, _ = synthetic_lowrank(
                SynthSpec(dims=dims, rank=rank, seed=1000 + k, noise_level=0.2)
            )
        problem = NtfProblem(data, rank)
        model = init_factors(dims, rank, seed=k)
        schedule = RadiusSchedule(kind="power_log", beta=beta, c_prime=c_prime)
        cfg = SolverConfig(schedule=schedule, max_sweeps=25, clock="sweep")
        _, trace = run(problem, model.to_blocks(), cfg)
        runs.append((schedule, trace))
    return runs


def test_criterion_01_monotone_descent(descent_runs):
    worst = -math.inf
    for _, trace in descent_runs:
        for prev, cur in zip(trace, trace[1:]):
            worst = max(
                worst,
                cur.objective - prev.objective - 1e-9 * (1.0 + prev.objective),
            )
    report(1, "monotone descent", worst <= 0.0, f"worst slack excess {worst:.3e}")


def test_criterion_02_radius_feasibility(descent_runs):
    violations = 0
    for schedule, trace in descent_runs:
        for rec in trace:
            if rec.n == 0:
                continue
            bound = schedule.radius(rec.n) * (1.0 + 1e-12)
            violations += sum(s > bound for s in rec.block_step_norms)
    report(2, "radius feasibility", violations == 0, f"{violations} violations")


def test_criterion_03_square_summable_steps(descent_runs):
    worst = -math.inf
    for schedule, trace in descent_runs:
        m = len(trace[0].block_step_norms)
        cum = 0.0
        wsq = 0.0
        for rec in trace:
            if rec.n == 0:
                continue
            cum += sum(s * s for s in rec.block_step_norms)
            w = schedule.weight(rec.n)
            wsq += w * w
            worst = max(worst, cum - (m * schedule.c_prime**2 * wsq + 1e-6))
        verdict = verify_trace(trace, schedule)
        assert verdict.all_ok
    report(3, "square-summable steps", worst <= 0.0, f"worst excess {worst:.3e}")


def test_criterion_04_stationarity_reached():
    # Noiseless dims (10, 12, 14), true and fit rank 2, beta = 1, c' = 1e5:
    # min stationarity over <= 1000 sweeps within 1e-3 * (1 + initial).
    data, _ = synthetic_lowrank(SynthSpec(dims=(10, 12, 14), rank=2, seed=7))
    problem = NtfProblem(data, rank=2)
    schedule = RadiusSchedule(kind="power_log", beta=1.0, c_prime=1e5)
    passed = 0
    details = []
    for seed in range(5):
        blocks = init_factors(data.shape, 2, seed=seed).to_blocks()
        s0 = stationarity_measure(problem, blocks)
        threshold = 1e-3 * (1.0 + s0)
        cfg = SolverConfig(
            schedule=schedule, max_sweeps=1000, stationarity_stop=threshold
        )
        _, trace = run(problem, blocks, cfg)
        best = min(rec.stationarity for rec in trace)
        details.append(f"seed {seed}: min {best:.2e} vs {threshold:.2e}")
        if best <= threshold:
            passed += 1
    report(4, "stationarity", passed == 5, f"{passed}/5 seeds; " + "; ".join(details))


def test_criterion_05_exact_recovery_desk_scale():
    # Noiseless (20, 25, 30), true rank 3, fit rank 3: relative error <= 1e-2
    # within 300 sweeps or 60 s for >= 4 of 5 seeds, for both solvers.
    data, _ = synthetic_lowrank(SynthSpec(dims=(20, 25, 30), rank=3, seed=0))
    problem = NtfProblem(data, rank=3)
    data_norm = math.sqrt(float(np.sum(data**2)))
    schedules = {
        "als_dr-0.5": RadiusSchedule(kind="power_log", beta=0.5, c_prime=1e5),
        "als": RadiusSchedule(kind="infinite"),
    }
    outcome = {}
    for label, schedule in schedules.items():
        hits = 0
        for seed in range(1, 6):
            blocks = init_factors(data.shape, 3, seed=seed).to_blocks()
            cfg = SolverConfig(schedule=schedule, max_sweeps=300, max_seconds=60.0)
            _, trace = run(problem, blocks, cfg)
            rel = math.sqrt(max(trace[-1].objective, 0.0)) / data_norm
            hits += rel <= 1e-2
        outcome[label] = hits
    ok = all(h >= 4 for h in outcome.values())
    report(5, "exact recovery at desk scale", ok, str(outcome))


# ---------------------------------------------------------------------------
# Criterion 6: sub-solver oracles.


def vectorized_grid_min(q, fs, lo, hi, step):
    """Dense grid search over the feasible set; returns the best objective."""
    shape = fs.center.shape
    nvars = int(np.prod(shape))
    axes = [np.arange(lo, hi + step / 2.0, step)] * nvars
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if not math.isinf(fs.radius):
        keep = np.linalg.norm(pts - fs.center.ravel(), axis=1) <= fs.radius
        pts = pts[keep]
    u = pts.reshape(len(pts), *shape)
    vals = (
        np.einsum("nds,nds->n", np.einsum("ndr,rs->nds", u, q.gram), u)
        - 2.0 * np.einsum("ndr,dr->n", u, q.linear)
        + q.constant
    )
    j = int(np.argmin(vals))
    return float(vals[j]), u[j]


def kkt_projection_oracle(p, fs, tol=1e-13):
    """Exact projection onto box-and-ball by dual bisection.

    The projection is clip((p + mu*c) / (1 + mu)) where mu >= 0 is the ball
    multiplier; the ball-distance residual is monotone in mu, so bisection
    pins it down. Entirely independent of the alternating-projection path.
    """
    lo, hi, c, r = fs.lower, fs.upper, fs.center, fs.radius

    def z_of(mu):
        return np.clip((p + mu * c) / (1.0 + mu), lo, hi)

    def g_of(mu):
        return float(np.linalg.norm(z_of(mu) - c)) - r

    if math.isinf(r) or g_of(0.0) <= 0.0:
        return z_of(0.0)
    mu_hi = 1.0
    while g_of(mu_hi) > 0.0:
        mu_hi *= 2.0
        if mu_hi > 1e18:
            raise RuntimeError("dual multiplier bracket failed")
    mu_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (mu_lo + mu_hi)
        if g_of(mid) > 0.0:
            mu_lo = mid
        else:
            mu_hi = mid
        if mu_hi - mu_lo <= tol * (1.0 + mu_hi):
            break
    return z_of(mu_hi)


def test_criterion_06_subsolver_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst_gap = -math.inf
    for k in range(50):
        nvars = 1 + k % 3
        d, r = (nvars, 1) if k % 2 == 0 else (1, nvars)
        kmat = rng.standard_normal((r + 2, r))
        q = QuadraticBlockSubproblem(
            gram=kmat.T @ kmat,
            linear=rng.standard_normal((d, r)) * 0.5,
            constant=float(rng.random()),
        )
        center = rng.random((d, r)) * 0.12
        fs = BoxBallFeasibleSet(lower=0.0, upper=0.15, center=center, radius=0.1)
        res = solve_block_qp(q, fs, start=center, tol=1e-10)
        assert fs.contains(res.point, tol=1e-9)
        step = 1e-3 if nvars < 3 else 1.5e-3
        f_grid, _ = vectorized_grid_min(q, fs, 0.0, 0.15, step)
        gap = (q.objective(res.point) - f_grid) / (1.0 + abs(f_grid))
        worst_gap = max(worst_gap, gap)
    ok_qp = worst_gap <= 1e-6

    worst_proj = -math.inf
    for k in range(50):
        nvars = 1 + k % 3
        shape = (1, nvars)
        center = rng.random(shape)
        fs = BoxBallFeasibleSet(
            lower=0.0,
            upper=1.0,
            center=center,
            radius=0.2 + 0.5 * float(rng.random()),
        )
        p = rng.standard_normal(shape) * 1.5
        z = project_box_ball(p, fs).point
        z_star = kkt_projection_oracle(p, fs)
        worst_proj = max(worst_proj, float(np.linalg.norm(z - z_star)))
    ok_proj = worst_proj <= 1e-4

    report(
        6,
        "sub-solver oracle equivalence",
        ok_qp and ok_proj,
        f"worst normalized QP gap {worst_gap:.2e}, worst projection distance {worst_proj:.2e}",
    )


def test_criterion_07_gradient_correctness():
    rng = np.random.default_rng(707)
    worst = -math.inf
    for _ in range(10):
        dims = tuple(int(rng.integers(3, 6)) for _ in range(3))
        rank = int(rng.integers(1, 4))
        problem = NtfProblem(rng.random(dims), rank)
        blocks = [rng.random((d, rank)) for d in dims]
        grads = problem.full_gradient(blocks)
        for i in range(3):
            fd = np.zeros_like(blocks[i])
            it = np.nditer(blocks[i], flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                h = 1e-6 * max(1.0, abs(float(blocks[i][idx])))
                plus = [b.copy() for b in blocks]
                minus = [b.copy() for b in blocks]
                plus[i][idx] += h
                minus[i][idx] -= h
                fd[idx] = (problem.objective(plus) - problem.objective(minus)) / (
                    2.0 * h
                )
                it.iternext()
            rel = float(
                np.linalg.norm(grads[i] - fd) / (np.linalg.norm(fd) + 1e-12)
            )
            worst = max(worst, rel)
    report(7, "gradient correctness", worst <= 1e-5, f"worst relative error {worst:.2e}")


def test_criterion_08_mu_baseline_sanity():
    rng = np.random.default_rng(808)
    worst_increase = -math.inf
    negative_entries = 0
    for _ in range(10):
        dims = tuple(int(rng.integers(3, 7)) for _ in range(3))
        rank = int(rng.integers(1, 4))
        problem = NtfProblem(rng.random(dims), rank)
        blocks = [rng.random((d, rank)) for d in dims]
        f_prev = problem.objective(blocks)
        for _ in range(50):
            blocks = mu_sweep(problem, blocks)
            negative_entries += sum(int(np.sum(b < 0.0)) for b in blocks)
            f = problem.objective(blocks)
            worst_increase = max(worst_increase, f - f_prev - 1e-8 * (1.0 + f_prev))
            f_prev = f
    ok = worst_increase <= 0.0 and negative_entries == 0
    report(
        8,
        "mu baseline sanity",
        ok,
        f"worst slack excess {worst_increase:.2e}, negatives {negative_entries}",
    )


@pytest.mark.slow
def test_criterion_09_paper_scale_artifact(tmp_path):
    # Full-size comparison (100x200x300, rank 5, 10 runs, four algorithms)
    # under a configured budget; gate: every algorithm's mean final error is
    # at most 10% of its mean initial error. The radius-restriction vs plain
    # ALS comparison is reported, not gated.
    out = tmp_path / "paper"
    code = main(
        [
            "--paper-scale",
            "--max-sweeps", "140",
            "--max-seconds", "20",
            "--seed", "0",
            "--out", str(out),
            "--plot",
        ]
    )
    assert code == 0
    assert (out / "aggregate.csv").exists()
    svg = (out / "convergence.svg").read_text()
    labels = ["als_dr-0.5", "als_dr-1", "als", "mu"]
    assert svg.count("<polyline") == len(labels)
    assert svg.count("<polygon") == len(labels)

    ratios = {}
    mean_finals = {}
    for label in labels:
        initials, finals = [], []
        for k in range(1, 11):
            rows = (out / f"{label}_run{k}.csv").read_text().splitlines()[1:]
            initials.append(float(rows[0].split(",")[4]))
            finals.append(float(rows[-1].split(",")[4]))
        mean_finals[label] = float(np.mean(finals))
        ratios[label] = mean_finals[label] / float(np.mean(initials))
    ok = all(r <= 0.10 for r in ratios.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in ratios.items())
    comparison = ", ".join(f"{k}={v:.4g}" for k, v in mean_finals.items())
    print(f"reported (not gated) mean final errors: {comparison}")
    report(9, "paper-scale artifact", ok, f"final/initial ratios: {detail}")


def test_criterion_10_determinism_from_provenance(tmp_path):
    first = tmp_path / "first"
    code = main(
        [
            "--data", "synth", "--shape", "8,9,7", "--rank", "2",
            "--algo", "als_dr-0.5", "--algo", "mu", "--c-prime", "1e5",
            "--runs", "2", "--max-sweeps", "6", "--seed", "3",
            "--out", str(first), "--clock", "sweep",
        ]
    )
    assert code == 0
    cfg, notes = parse_config(
        ["--config", str(first / "config.txt"), "--out", str(tmp_path / "second")]
    )
    summary = run_experiment(cfg, notes)
    assert not summary.failures
    identical = True
    for name in ("als_dr-0.5_run1.csv", "als_dr-0.5_run2.csv", "mu_run1.csv", "mu_run2.csv"):
        if (first / name).read_bytes() != (Path(cfg.out) / name).read_bytes():
            identical = False
    report(10, "determinism from provenance", identical, "trace CSV bytes compared")
