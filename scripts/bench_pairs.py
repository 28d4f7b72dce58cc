"""Paired before/after runs of ``bench/run.py``, recorded in a ``BENCH_*.json``.

Both sides are plain source trees, for example made with::

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent

Then, from the repository root::

    python3 scripts/bench_pairs.py --parent /tmp/parent --change . \\
        --workload paper_fit --seed 101 --claim sweeps_per_s \\
        --out BENCH_paper_fit.json

Pair ``k`` of ten (``k`` from 0) runs both sides, and the parent's A/A
control (below), on seed ``--seed + k``, untraced, for the ``run_seconds``
that ``BENCHMARK.json`` fixes. Each pair prints the three runs'
``sweeps_per_s`` as it ends, and the claimed metric's when there is one.
Each run's last output line (the benchmark's JSON result) and the
provenance of its record are kept, also when some of its solves failed and
it exited 1; its ``ok_frac`` then reads below 1 and is judged like any
other metric. Only a run that prints no result stops the session.
For every end-to-end metric the summary gives each side's median and
quartiles and the number of pairs the change won, ties counting for neither
side. A claimed metric is met when the change wins at least nine tenths of
the pairs and the medians differ by more than both the parent's
interquartile range and the A/A spread (below). Every metric also gets a
no-regression verdict against its ``bound``, a fraction of the parent's
median: "worse" when the change's median is worse than the parent's by more
than the bound; else "unresolved" when the parent's interquartile range is
wider than the bound, unless every change run beats every parent run; else
"no regression". A metric that has no value in some parent or change run,
because every solve of one algorithm failed there, reads "unresolved", and
a claim on it is not met.

Every pair, the held-out one too, runs the parent tree a third time as its
A/A control, called the copy: the same code, run beside the parent under
the same host load. The three runs of pair ``k`` go parent, change, copy
for even ``k`` and copy, change, parent for odd ``k``, so that each of the
three orders of two sides comes first equally often. For every end-to-end
metric the summary records, under ``aa``, the copy's quartiles, the median
of the per-pair gaps copy minus parent, and their ``spread``: the larger
absolute value of their lower and upper quartiles, so that in at least a
quarter of the pairs an identical tree differed from the parent by that
much. A metric that has no value in some copy run gets ``aa`` as
``{"missing": n}``, and a claim on it is not met; its verdict still
compares parent and change alone. Unclaimed metrics keep their verdicts;
the A/A numbers say how far the host moves them with no change at all.

A ``--claim`` must name an end-to-end metric of ``BENCHMARK.json``. The
exit status is 1 when the claim is not met or any of the ten pairs'
verdicts reads "worse" (the held-out pair, summarized on its own, does not
count), else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise SystemExit(f"bench/run.py gave no result in {tree} (seed {seed}, exit {proc.returncode}):\n{proc.stderr}")
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["provenance"] = record["provenance"]
    result["exit_status"] = proc.returncode
    if proc.returncode != 0:
        result["stderr"] = proc.stderr
    return result


def shown(result: dict, name: str) -> str:
    """A run's value of metric ``name`` for a progress line."""
    value = result["metrics"][name]["value"]
    return "n/a" if value is None else f"{value:.4g}"


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def regression_verdict(parent: list[float], change: list[float], higher: bool, bound: float) -> str:
    before, after = quartiles(parent), quartiles(change)
    allowed = bound * abs(before["median"])
    loss = before["median"] - after["median"] if higher else after["median"] - before["median"]
    if loss > allowed:
        return "worse"
    all_better = min(change) > max(parent) if higher else max(change) < min(parent)
    if before["q3"] - before["q1"] > allowed and not all_better:
        return "unresolved"
    return "no regression"


def aa_floor(parent: list[float], copy: list[float]) -> dict:
    """The A/A control of one metric: the copy's quartiles and its per-pair gaps to the parent."""
    if None in copy:
        return {"missing": copy.count(None)}
    gaps = quartiles([c - p for p, c in zip(parent, copy)])
    return {"copy": quartiles(copy), "median_gap": gaps["median"],
            "spread": max(abs(gaps["q1"]), abs(gaps["q3"]))}


def summarize(pairs: list[dict], spec: dict, claim: str | None) -> dict:
    summary = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        parent, change, copy = ([p[side]["metrics"][name]["value"] for p in pairs]
                                for side in ("parent", "change", "copy"))
        missing = {"parent": parent.count(None), "change": change.count(None)}
        if any(missing.values()):
            # A run where every solve of one algorithm failed has no value
            # here; its ok_frac counts the failures.
            summary[name] = {"better": m["better"], "bound": m["bound"], "missing": missing,
                             "verdict": "unresolved"}
            if name == claim:
                summary[name]["claim_met"] = False
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        before, after = quartiles(parent), quartiles(change)
        entry = {
            "better": m["better"],
            "bound": m["bound"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "change_losses": losses,
            "median_ratio": after["median"] / before["median"] if before["median"] else None,
            "verdict": regression_verdict(parent, change, higher, m["bound"]),
            "aa": aa_floor(parent, copy),
        }
        if name == claim:
            gap = abs(after["median"] - before["median"])
            entry["claim_met"] = (
                wins >= 0.9 * len(pairs)
                and gap > before["q3"] - before["q1"]
                and gap > entry["aa"].get("spread", math.inf)
            )
        summary[name] = entry
    return summary


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float, claim: str | None) -> list[dict]:
    """One pair per seed, of three runs: parent, change and copy (see the module docstring)."""
    pairs = []
    sides = ("parent", "change", "copy")
    for k, seed in enumerate(seeds):
        order = sides if k % 2 == 0 else sides[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], workload, seed, seconds)
        pairs.append(pair)
        print(f"pair {k} seed {seed}: " + "; ".join(
            f"{name} " + ", ".join(f"{side} {shown(pair[side], name)}" for side in sides)
            for name in dict.fromkeys(["sweeps_per_s", claim or "sweeps_per_s"])
        ), flush=True)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--claim", default=None, help="end-to-end metric the change claims to improve")
    parser.add_argument("--held-out", type=int, default=None,
                        help="seed of one more pair, summarized on its own")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric; expected one of {', '.join(metrics)}")
    seconds = spec["run_seconds"]
    seeds = [args.seed + k for k in range(PAIRS)]
    if args.held_out is not None:
        seeds.append(args.held_out)
    parent = args.parent.resolve()
    pairs = run_pairs({"parent": parent, "change": args.change.resolve(), "copy": parent},
                      args.workload, seeds, seconds, args.claim)
    held_out = pairs[PAIRS:]
    pairs = pairs[:PAIRS]

    record = {
        "workload": args.workload,
        "seconds": seconds,
        "command": f"python3 bench/run.py --workload {args.workload} --seed SEED --seconds {seconds:g} --trace 0",
        "claim": args.claim,
        "summary": summarize(pairs, spec, args.claim),
        "pairs": pairs,
        "held_out": summarize(held_out, spec, None) if held_out else None,
        "held_out_pairs": held_out,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["summary"].items():
        compared = (f"parent {entry['parent']['median']:.6g}  change {entry['change']['median']:.6g}  "
                    f"wins {entry['change_wins']}/{len(pairs)}" if "missing" not in entry
                    else f"runs without a value: {entry['missing']}")
        aa = entry.get("aa", {})
        if "spread" in aa:
            compared += f"  A/A gap {aa['median_gap']:+.4g} spread {aa['spread']:.4g}"
        elif aa:
            compared += f"  A/A runs without a value: {aa['missing']}"
        print(f"{name:20s} {compared}  {entry['verdict']}"
              + (f"  claim met: {entry['claim_met']}" if "claim_met" in entry else ""))
    failed = [name for name, entry in record["summary"].items()
              if entry["verdict"] == "worse" or entry.get("claim_met") is False]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
