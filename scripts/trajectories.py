"""Trajectories of two source trees, run on fixed cases and compared.

Both sides are plain source trees, for example made with::

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent

Then, from the repository root::

    python3 scripts/trajectories.py --parent /tmp/parent --change .

Each tree runs the same cases in a subprocess of its own, importing
``drbcd`` from its own ``src``, with OpenBLAS on one thread and the
deterministic ``clock="sweep"``:

- ``paper``: 100x200x300 rank-5 synthetic tensors, 2 seeds x 30 sweeps,
  ``c' = 1e5``, ``beta = 1`` (the radius never binds);
- ``surrogate``: 90x500x100 rank-5 sparse surrogates (density 0.01, mean
  absolute entry 0.00067), 2 seeds x 25 sweeps, ``c' = 3``, ``beta = 0.5``
  (the radius binds on every sweep);
- ``surrogate 500x90x100``: the same surrogates with the longest mode first,
  so that the sparse passes pivot on the first mode instead of the middle
  one;
- ``desk``: 20x25x30 rank-3 synthetic tensors, 3 seeds x 200 sweeps,
  ``c' = 1e5``, ``beta = 0.5``;
- ``matrix``: 300x400 rank-5 synthetic matrices, 2 seeds x 30 sweeps,
  ``c' = 1e5``, ``beta = 1``, and ``sparse matrix``: 300x2000 rank-5
  sparse surrogates, 2 seeds x 25 sweeps, ``c' = 3``, ``beta = 0.5``: two
  modes, where the other block's term is the partial itself, uncontracted;
- ``mu``: 10 multiplicative-update sweeps from the start of each case above.

Each run starts from ``init_factors`` with seed ``1000 + seed``. (With the
data's own seed, the synthetic cases would start at the factors that
generated the data, an exact fit.)

It first prints, for every case and seed, a digest of the data tensor each
side built (SHA-256 of its shape and float64 bytes, taken from the dense
tensor also where the generator returned the coordinates of its nonzeros,
so that the two forms compare), whether the two match, each side's median
set-up time over 5 untraced builds of the generator and ``NtfProblem``
together (the work ``bench/run.py``'s ``setup_s`` times), and the most bytes
numpy held at once while the generator ran, what it returned included (its
build peak, from ``tracemalloc``); next to them,
the digest of the tensor each side's ``NtfProblem`` returns as its
``data`` (again the dense tensor, also where ``data`` is the coordinates
of its nonzeros), whether those match, the bytes of the arrays each problem
holds, the most bytes numpy held at once while ``NtfProblem(x)`` was built
(its ``tracemalloc`` peak, the data itself not counted), the most bytes
numpy held at once while ``tensors.frobenius_norm(problem.data)`` ran, the
reading of ``data`` included (its norm peak), and the most
bytes numpy held at once over the case's BCD-DR and MU runs together,
beyond what the problem held before them (their solve peak), so that a
change in how a problem holds its data, or in what building it or solving
on it costs, shows beside its inputs. For every run it then prints the
sweeps each side did, the largest relative deviation of the objective, the
largest objective deviation in the form of acceptance criterion 1's slack,
``|f_change - f_parent| / (1 + |f_parent|)`` (which stays meaningful where
``f`` nears 0), the largest relative deviation of the stationarity measure,
the first sweep at which any block step norm differs, whether the two
traces are bit-identical in every field the trace CSV writes, whether the
long/short point classes, the sweep counts and the stop reasons match, and
whether the run's data matched. For a change that moves bits on purpose,
these say whether it moved the paths or only their rounding. A trace that
diverges on matching data points to the solver; one on data that differs
points to the inputs. For a change that moves paths, it also prints each
side's final objective and the lowest stationarity measure its run reached
(the running minimum at its last sweep), so that a reader sees which side
ends lower.

Last, it prints the size of each side's ``src/drbcd`` two ways: all its
lines, and its code lines, those that are not blank, not a comment alone,
and not inside a module, class or function docstring (see
:func:`source_size`).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

# Run inside each tree; prints {"data": {case name: digest}, "setup": {case
# name: median set-up seconds}, "build": {case name: build peak}, "problem":
# {case name: [digest, bytes held, set-up peak, norm peak]},
# "solve": {case name: solve peak}, "runs": {run name: [record, ...]}}, a
# record being every field the trace CSV writes (see `compare`).
WORKER = r"""
import hashlib, json, statistics, sys, time, tracemalloc
import numpy as np
sys.path.insert(0, "src")
from drbcd import datagen, driver, factorization, schedule, tensors

CASES = (
    ("paper", "synth", (100, 200, 300), 5, 1.0, 1e5, 30, (1, 2)),
    ("surrogate", "surrogate", (90, 500, 100), 5, 0.5, 3.0, 25, (1, 2)),
    ("surrogate 500x90x100", "surrogate", (500, 90, 100), 5, 0.5, 3.0, 25, (1, 2)),
    ("desk", "synth", (20, 25, 30), 3, 0.5, 1e5, 200, (1, 2, 3)),
    ("matrix", "synth", (300, 400), 5, 1.0, 1e5, 30, (1, 2)),
    ("sparse matrix", "surrogate", (300, 2000), 5, 0.5, 3.0, 25, (1, 2)),
)
MU_SWEEPS = 10
INIT_SEED = 1000
SETUP_BUILDS = 5

def records(trace):
    # Named one by one: an older tree's records may hold fields that a newer one dropped.
    return [
        [r.objective, r.stationarity, r.point_class, list(r.block_step_norms), r.radius,
         r.unconverged_solves, r.stop_reason]
        for r in trace
    ]

def digest(x):
    h = hashlib.sha256(repr(x.shape).encode())
    h.update(np.ascontiguousarray(x, dtype="<f8"))
    return h.hexdigest()[:16]

def dense(x):
    # A generator, or a problem's ``data``, returns a tensor or the
    # coordinates of its nonzeros.
    return x.dense() if hasattr(x, "dense") else np.asarray(x)

def held_bytes(problem):
    buffers = {}
    for value in vars(problem).values():
        for a in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                buffers[id(owner)] = owner.nbytes
    return sum(buffers.values())

out = {"data": {}, "setup": {}, "build": {}, "problem": {}, "solve": {}, "runs": {}}
# A generator's first call imports modules, and so does a first block solve
# (numpy.ma, through np.unique); keep them out of the first case's peaks.
datagen.sparse_surrogate(datagen.SynthSpec(dims=(2, 2), rank=1, density=0.5, target_mean_abs=1.0))
warm = factorization.NtfProblem(datagen.synthetic_lowrank(datagen.SynthSpec(dims=(3, 4, 5), rank=2))[0], 2)
warm_init = factorization.init_factors((3, 4, 5), 2, seed=0, box_bound=warm.box_bound).to_blocks()
driver.run(warm, warm_init, driver.SolverConfig(
    schedule=schedule.RadiusSchedule(kind="power_log", beta=0.5, c_prime=0.1), max_sweeps=2, clock="sweep"))
factorization.run_mu(warm, warm_init, driver.SolverConfig(
    schedule=schedule.RadiusSchedule(kind="infinite"), max_sweeps=2, clock="sweep"))
del warm, warm_init
for name, data, dims, rank, beta, c_prime, sweeps, seeds in CASES:
    for seed in seeds:
        if data == "synth":
            spec = datagen.SynthSpec(dims=dims, rank=rank, seed=seed)
            build = lambda: datagen.synthetic_lowrank(spec)[0]
        else:
            spec = datagen.SynthSpec(dims=dims, rank=rank, seed=seed, density=0.01, target_mean_abs=0.00067)
            build = lambda: datagen.sparse_surrogate(spec)
        times = []
        for _ in range(SETUP_BUILDS):
            began = time.perf_counter()
            factorization.NtfProblem(build(), rank)
            times.append(time.perf_counter() - began)
        out["setup"][f"{name} seed {seed}"] = statistics.median(times)
        tracemalloc.start()
        x = build()
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out["data"][f"{name} seed {seed}"] = digest(dense(x))
        out["build"][f"{name} seed {seed}"] = build_peak
        tracemalloc.start()
        problem = factorization.NtfProblem(x, rank)
        setup_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        tensors.frobenius_norm(problem.data)
        norm_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out["problem"][f"{name} seed {seed}"] = [
            digest(dense(problem.data)), held_bytes(problem), setup_peak, norm_peak
        ]
        # Not the data's seed: the synthetic data are built from the factors
        # that init_factors draws for the same seed.
        init = factorization.init_factors(
            dims, rank, seed=INIT_SEED + seed, box_bound=problem.box_bound
        ).to_blocks()
        cfg = driver.SolverConfig(
            schedule=schedule.RadiusSchedule(kind="power_log", beta=beta, c_prime=c_prime),
            max_sweeps=sweeps, clock="sweep",
        )
        mu_cfg = driver.SolverConfig(
            schedule=schedule.RadiusSchedule(kind="infinite"), max_sweeps=MU_SWEEPS, clock="sweep"
        )
        tracemalloc.start()
        out["runs"][f"{name} seed {seed}"] = records(driver.run(problem, init, cfg)[1])
        out["runs"][f"mu on {name} seed {seed}"] = records(factorization.run_mu(problem, init, mu_cfg)[1])
        out["solve"][f"{name} seed {seed}"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del x, problem
print(json.dumps(out))
"""


def run_tree(tree: Path) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", WORKER], cwd=tree, env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"trajectory run failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_size(tree: Path) -> tuple[int, int]:
    """``(lines, code lines)`` of the ``.py`` files under ``tree/src/drbcd``.

    A code line holds a token other than a comment, outside every module,
    class and function docstring; a line that a multi-line string or
    bracket spans counts once for each line it covers.
    """
    lines = code = 0
    for path in sorted((tree / "src" / "drbcd").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                        and isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        spanned = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER):
                spanned.update(range(tok.start[0], tok.end[0] + 1))
        code += len(spanned - docstrings)
    return lines, code


def data_of(run: str) -> str:
    """The case whose data a run factorizes: ``mu on X`` factorizes ``X``'s."""
    return run.removeprefix("mu on ")


def compare_data(parent: dict, change: dict) -> dict:
    """Per case, ``(parent digest, change digest, same)``; a case one side lacks has ``None``."""
    return {
        name: (parent.get(name), change.get(name), parent.get(name) == change.get(name))
        for name in {**parent, **change}
    }


def relative_deviation(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(parent: list, change: list) -> dict:
    """One run's change trace against its parent trace.

    Records are ``[objective, stationarity, point_class, block_step_norms,
    radius, unconverged_solves, stop_reason]``, every field the trace CSV
    writes (the sweep clock stamps ``elapsed_seconds`` with the index), so
    ``identical`` covers them all; deviations are taken over the sweeps both
    traces have. ``objective`` is the largest deviation relative to the
    larger of the two values, ``objective_slack`` the largest ``|f_change -
    f_parent| / (1 + |f_parent|)``, the form of the descent slack of
    acceptance criterion 1. ``first_step_change`` is the first sweep at
    which any block step norm differs, or ``None``; ``stops_match`` says
    whether the two runs stopped for the same reason.
    """
    pairs = list(zip(parent, change))
    return {
        "sweeps": (len(parent) - 1, len(change) - 1),
        "objective": max((relative_deviation(p[0], c[0]) for p, c in pairs), default=0.0),
        "objective_slack": max((abs(p[0] - c[0]) / (1.0 + abs(p[0])) for p, c in pairs), default=0.0),
        "stationarity": max((relative_deviation(p[1], c[1]) for p, c in pairs), default=0.0),
        "first_step_change": next((n for n, (p, c) in enumerate(pairs) if p[3] != c[3]), None),
        "identical": parent == change,
        "classes_match": [p[2] for p in parent] == [c[2] for c in change],
        "stops_match": parent[-1][6] == change[-1][6],
        "final_objective": (parent[-1][0], change[-1][0]),
        "min_stationarity": (min(r[1] for r in parent), min(r[1] for r in change)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    parent = run_tree(args.parent.resolve())
    change = run_tree(args.change.resolve())
    data = compare_data(parent["data"], change["data"])
    problems = compare_data(*({k: v[0] for k, v in side["problem"].items()} for side in (parent, change)))
    print(f"{'data':34s} {'parent digest':>16s} {'change digest':>16s}  same  "
          f"{'set-up ms (parent, change)':>26s}  {'build peak (parent, change)':>27s}  "
          f"{'problem digests (parent, change)':>33s}  same  {'bytes held (parent, change)':>27s}  "
          f"{'set-up peak (parent, change)':>28s}  {'norm peak (parent, change)':>26s}  "
          f"{'solve peak (parent, change)':>27s}")
    for name, (before, after, same) in data.items():
        problem_before, problem_after, problem_same = problems[name]
        digests = f"{problem_before or 'n/a'} {problem_after or 'n/a'}"
        build, solve = (" ".join(str(side[key].get(name, "n/a")) for side in (parent, change))
                        for key in ("build", "solve"))
        setup = " ".join(
            f"{1e3 * side['setup'][name]:.1f}" if name in side.get("setup", {}) else "n/a"
            for side in (parent, change)
        )
        held, peak, norm = (
            " ".join(str(side["problem"].get(name, (None,) + ("n/a",) * 3)[column]) for side in (parent, change))
            for column in (1, 2, 3)
        )
        print(f"{name:34s} {before or 'n/a':>16s} {after or 'n/a':>16s}  {'yes' if same else 'no':4s}  "
              f"{setup:>26s}  {build:>27s}  "
              f"{digests:>33s}  {'yes' if problem_same else 'no':4s}  {held:>27s}  {peak:>28s}  "
              f"{norm:>26s}  {solve:>27s}")
    matched = all(same for _, _, same in data.values())
    print("inputs matched on every case" if matched else "inputs DIFFER on the cases marked no")
    matched = all(same for _, _, same in problems.values())
    print("problems' data matched on every case" if matched else "problems' data DIFFER on the cases marked no")
    print()
    print(f"{'run':34s} {'sweeps':>8s} {'objective':>10s} {'obj/(1+|f|)':>11s} {'stationarity':>12s}  "
          f"{'first step change':>17s}  bit-identical  classes match  sweeps match  stops match  "
          f"same data  {'final objective (parent, change)':>34s}  {'min stationarity (parent, change)':>34s}")
    for name in parent["runs"]:
        c = compare(parent["runs"][name], change["runs"][name])
        sweeps = "{}/{}".format(*c["sweeps"])
        first = "none" if c["first_step_change"] is None else str(c["first_step_change"])
        final = "{:.10e} {:.10e}".format(*c["final_objective"])
        lowest = "{:.10e} {:.10e}".format(*c["min_stationarity"])
        yes = {key: "yes" if c[key] else "no" for key in ("identical", "classes_match", "stops_match")}
        print(f"{name:34s} {sweeps:>8s} {c['objective']:10.2e} {c['objective_slack']:11.2e} "
              f"{c['stationarity']:12.2e}  {first:>17s}  {yes['identical']:13s}  {yes['classes_match']:13s}  "
              f"{'yes' if c['sweeps'][0] == c['sweeps'][1] else 'no':12s}  {yes['stops_match']:11s}  "
              f"{'yes' if data[data_of(name)][2] else 'no':9s}  {final:>34s}  {lowest:>34s}")
    print()
    (lines_before, code_before), (lines_after, code_after) = (source_size(t) for t in (args.parent, args.change))
    print(f"src/drbcd lines (parent, change): {lines_before} {lines_after}; "
          f"code lines (parent, change): {code_before} {code_after}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
