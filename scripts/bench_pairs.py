"""Paired before/after runs of ``bench/run.py``, recorded in a ``BENCH_*.json``.

Both sides are plain source trees, for example made with::

    mkdir -p /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent

Then, from the repository root::

    python3 scripts/bench_pairs.py --parent /tmp/parent --change . \\
        --workload paper_fit --seed 101 --claim sweeps_per_s \\
        --out BENCH_paper_fit.json

Pair ``k`` of ten (``k`` from 0) runs both sides on seed ``--seed + k``,
untraced, for the ``run_seconds`` that ``BENCHMARK.json`` fixes; the side
that runs first alternates from pair to pair. Each run's last output line
(the benchmark's JSON result) and the provenance of its record are kept.
For every end-to-end metric the summary gives each side's median and
quartiles and the number of pairs the change won, ties counting for neither
side. A claimed metric is met when the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range.
"""

from __future__ import annotations

import argparse
import json
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
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"bench/run.py failed in {tree} (seed {seed}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    result["provenance"] = record["provenance"]
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], spec: dict, claim: str | None) -> dict:
    summary = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
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
        }
        if name == claim:
            gap = abs(after["median"] - before["median"])
            entry["claim_met"] = (
                wins >= 0.9 * len(pairs)
                and gap > before["q3"] - before["q1"]
            )
        summary[name] = entry
    return summary


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
    seconds = spec["run_seconds"]
    seeds = [args.seed + k for k in range(PAIRS)]
    if args.held_out is not None:
        seeds.append(args.held_out)
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(getattr(args, side).resolve(), args.workload, seed, seconds)
        pairs.append(pair)
        shown = {s: pair[s]["metrics"]["sweeps_per_s"]["value"] for s in ("parent", "change")}
        print(f"pair {k} seed {seed}: sweeps_per_s parent {shown['parent']:.4g}, "
              f"change {shown['change']:.4g}", flush=True)
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
        print(f"{name:20s} parent {entry['parent']['median']:.6g}  change {entry['change']['median']:.6g}  "
              f"wins {entry['change_wins']}/{len(pairs)}" + (f"  claim met: {entry['claim_met']}" if "claim_met" in entry else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
