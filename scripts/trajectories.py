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
- ``mu``: 10 multiplicative-update sweeps from the start of each case above.

Each run starts from ``init_factors`` with seed ``1000 + seed``. (With the
data's own seed, the synthetic cases would start at the factors that
generated the data, an exact fit.)

It first prints, for every case and seed, a digest of the data tensor each
side built (SHA-256 of its shape and float64 bytes) and whether the two
match; next to them, the digest of the tensor each side's ``NtfProblem``
returns as its ``data``, whether those match, and the bytes of the arrays
each problem holds, so that a change in how a problem holds its data shows
beside its inputs. For every run it then prints the sweeps each side did,
the largest relative deviation of the objective and of the stationarity
measure over the sweeps, whether the two traces are bit-identical in every
field the trace CSV writes, whether the long/short point classes match, and
whether the run's data matched. A trace that diverges on matching data
points to the solver; one on data that differs points to the inputs. For a
change that moves paths, it also prints each side's final objective and the
lowest stationarity measure its run reached (the running minimum at its
last sweep), so that a reader sees which side ends lower.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Run inside each tree; prints {"data": {case name: digest}, "problem": {case
# name: [digest, bytes held]}, "runs": {run name: [record, ...]}}, a record
# being every field the trace CSV writes (see `compare`).
WORKER = r"""
import hashlib, json, sys
import numpy as np
sys.path.insert(0, "src")
from drbcd import datagen, driver, factorization, schedule

CASES = (
    ("paper", "synth", (100, 200, 300), 5, 1.0, 1e5, 30, (1, 2)),
    ("surrogate", "surrogate", (90, 500, 100), 5, 0.5, 3.0, 25, (1, 2)),
    ("surrogate 500x90x100", "surrogate", (500, 90, 100), 5, 0.5, 3.0, 25, (1, 2)),
    ("desk", "synth", (20, 25, 30), 3, 0.5, 1e5, 200, (1, 2, 3)),
)
MU_SWEEPS = 10
INIT_SEED = 1000

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

def held_bytes(problem):
    buffers = {}
    for value in vars(problem).values():
        for a in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                buffers[id(owner)] = owner.nbytes
    return sum(buffers.values())

out = {"data": {}, "problem": {}, "runs": {}}
for name, data, dims, rank, beta, c_prime, sweeps, seeds in CASES:
    for seed in seeds:
        if data == "synth":
            x = datagen.synthetic_lowrank(datagen.SynthSpec(dims=dims, rank=rank, seed=seed))[0]
        else:
            x = datagen.sparse_surrogate(datagen.SynthSpec(
                dims=dims, rank=rank, seed=seed, density=0.01, target_mean_abs=0.00067))
        out["data"][f"{name} seed {seed}"] = digest(x)
        problem = factorization.NtfProblem(x, rank)
        out["problem"][f"{name} seed {seed}"] = [digest(problem.data), held_bytes(problem)]
        # Not the data's seed: the synthetic data are built from the factors
        # that init_factors draws for the same seed.
        init = factorization.init_factors(
            dims, rank, seed=INIT_SEED + seed, box_bound=problem.box_bound
        ).to_blocks()
        cfg = driver.SolverConfig(
            schedule=schedule.RadiusSchedule(kind="power_log", beta=beta, c_prime=c_prime),
            max_sweeps=sweeps, clock="sweep",
        )
        out["runs"][f"{name} seed {seed}"] = records(driver.run(problem, init, cfg)[1])
        mu_cfg = driver.SolverConfig(
            schedule=schedule.RadiusSchedule(kind="infinite"), max_sweeps=MU_SWEEPS, clock="sweep"
        )
        out["runs"][f"mu on {name} seed {seed}"] = records(factorization.run_mu(problem, init, mu_cfg)[1])
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
    traces have.
    """
    pairs = list(zip(parent, change))
    return {
        "sweeps": (len(parent) - 1, len(change) - 1),
        "objective": max((relative_deviation(p[0], c[0]) for p, c in pairs), default=0.0),
        "stationarity": max((relative_deviation(p[1], c[1]) for p, c in pairs), default=0.0),
        "identical": parent == change,
        "classes_match": [p[2] for p in parent] == [c[2] for c in change],
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
          f"{'problem digests (parent, change)':>33s}  same  {'bytes held (parent, change)':>27s}")
    for name, (before, after, same) in data.items():
        problem_before, problem_after, problem_same = problems[name]
        digests = f"{problem_before or 'n/a'} {problem_after or 'n/a'}"
        held = " ".join(str(side["problem"].get(name, (None, "n/a"))[1]) for side in (parent, change))
        print(f"{name:34s} {before or 'n/a':>16s} {after or 'n/a':>16s}  {'yes' if same else 'no':4s}  "
              f"{digests:>33s}  {'yes' if problem_same else 'no':4s}  {held:>27s}")
    matched = all(same for _, _, same in data.values())
    print("inputs matched on every case" if matched else "inputs DIFFER on the cases marked no")
    matched = all(same for _, _, same in problems.values())
    print("problems' data matched on every case" if matched else "problems' data DIFFER on the cases marked no")
    print()
    print(f"{'run':34s} {'sweeps':>8s} {'objective':>10s} {'stationarity':>12s}  bit-identical  classes match  "
          f"same data  {'final objective (parent, change)':>34s}  {'min stationarity (parent, change)':>34s}")
    for name in parent["runs"]:
        c = compare(parent["runs"][name], change["runs"][name])
        sweeps = "{}/{}".format(*c["sweeps"])
        final = "{:.10e} {:.10e}".format(*c["final_objective"])
        lowest = "{:.10e} {:.10e}".format(*c["min_stationarity"])
        print(f"{name:34s} {sweeps:>8s} {c['objective']:10.2e} {c['stationarity']:12.2e}  "
              f"{'yes' if c['identical'] else 'no':13s}  {'yes' if c['classes_match'] else 'no':13s}  "
              f"{'yes' if data[data_of(name)][2] else 'no':9s}  {final:>34s}  {lowest:>34s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
