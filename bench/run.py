"""Layered benchmark of the BCD-DR solver in ``src/drbcd``.

Run from the repository root, for example::

    python3 bench/run.py --workload desk_recover --seed 1 --seconds 30 --trace 0

``--trace 0`` solves the workload untraced and prints the end-to-end metrics
listed in ``BENCHMARK.json``; ``--trace 1`` solves it again with every layer
wrapped in spans and prints the per-layer metrics. Every solver output is
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 0
only when every run passed its checks. A fuller record, with provenance, is
written under ``.bench_out/``.
"""

import os

# BLAS reads these once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


def load_package() -> None:
    """Import ``drbcd`` from this checkout's ``src``, never from elsewhere."""
    package = ROOT / "src" / "drbcd"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no package source at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import drbcd

    if Path(drbcd.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported drbcd from {drbcd.__file__}, not from {package}")


load_package()

import numpy as np  # noqa: E402

import kernels  # noqa: E402
import provenance  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY, WORKLOADS, RunLog, Workload, build_instance, build_timed, solve_instance  # noqa: E402


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _mean(values) -> float | None:
    return statistics.fmean(values) if values else None


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(w: Workload, seed: int, count: int) -> tuple[dict, RunLog]:
    # Set-up is sampled before every instance, so that its samples span the
    # run like the solves do: at least 5 in all, and 0.5 s in all.
    log = RunLog()
    for j in range(count):
        inst = build_timed(w, seed, j, log, min_samples=-(-5 // count), min_seconds=0.5 / count)
        solve_instance(w, inst, log, f"instance {j}")
        del inst
    # Medians over instances for rates, so that a slow stretch of the machine
    # moves them little. Means for the counts, and for the time to target,
    # which follows the sweep count: a few sweeps per instance, so a median
    # would jump between whole sweeps.
    metrics = {
        "setup_s": statistics.median(log.setup_seconds),
        "time_to_target_s": _mean(log.seconds_to_target),
        "sweeps_to_target": _mean(log.sweeps_to_target),
        "sweeps_per_s": _median([n / s for n, s in zip(log.bcd_sweeps, log.bcd_seconds)]),
        "mu_sweeps_per_s": _median([n / s for n, s in zip(log.mu_sweeps, log.mu_seconds)]),
        "final_error_digits": _mean(log.final_digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (log.attempted - len(log.failures)) / log.attempted,
    }
    return metrics, log


def array_mb(obj) -> float:
    """MB held by the numpy arrays among ``obj``'s attributes, each buffer once."""
    buffers = {}
    for value in vars(obj).values():
        for a in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(a, np.ndarray):
                owner = a if a.base is None else a.base
                buffers[id(owner)] = owner.nbytes
    return sum(buffers.values()) / 1e6


def per_layer(w: Workload, seed: int, count: int, spans_path: Path) -> tuple[dict, RunLog]:
    # Instance 0 once untraced, as the base of the tracing overhead, and as
    # the state for the kernels timed on their own.
    reference = RunLog()
    inst = build_instance(w, seed, 0)
    solve_instance(w, inst, reference, "untraced instance 0")
    metrics = kernels.kernel_metrics(w, inst)
    metrics["factorization.problem_mb"] = array_mb(inst.problem)
    del inst

    log = RunLog()
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        for j in range(count):
            solve_instance(w, build_instance(w, seed, j), log, f"instance {j}")
            if j == 0:
                traced_s = sum(log.bcd_seconds) + sum(log.mu_seconds)
    recorder.save(spans_path)
    untraced_s = sum(reference.bcd_seconds) + sum(reference.mu_seconds)

    metrics.update(tracing.layer_metrics(recorder))
    metrics["driver.short_sweeps"] = log.short_sweeps
    metrics["driver.missed_target"] = log.missed_target
    metrics["driver.short_sweep_frac"] = _ratio(log.short_sweeps, sum(log.bcd_sweeps))
    metrics["trace.overhead_frac"] = _ratio(traced_s, untraced_s) - 1 if untraced_s else None
    log.attempted += reference.attempted
    log.failures += reference.failures
    return metrics, log


def _number(value):
    if value is None or not math.isfinite(value):
        return None
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="sets how many instances are solved")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small shapes, for the smoke test")
    args = parser.parse_args(argv)

    threads = provenance.blas_threads()
    if threads not in (None, 1):
        sys.exit(f"error: BLAS reports {threads} threads after pinning to 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    count = w.instance_count(args.seconds)
    stem = f"{w.name}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)

    started = time.perf_counter()
    if args.trace:
        metrics, log = per_layer(w, args.seed, count, OUT / f"{stem}-spans.npz")
    else:
        metrics, log = end_to_end(w, args.seed, count)
    wall_s = time.perf_counter() - started

    for failure in log.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    reported = {m["name"]: {"value": _number(metrics[m["name"]]), "unit": m["unit"]} for m in listed}
    record = {
        "workload": asdict(w),
        "instances": count,
        "seconds": args.seconds,
        "wall_s": wall_s,
        "trace": args.trace,
        "provenance": provenance.provenance(ROOT, args.seed, threads),
        "attempted": log.attempted,
        "failures": log.failures,
        "runs": asdict(log),
        "metrics": {k: _number(v) for k, v in sorted(metrics.items())},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {w.name} seed {args.seed}: {count} instance(s), {log.attempted} runs, "
          f"{len(log.failures)} failed, {log.missed_target} BCD-DR runs missed the target, "
          f"{wall_s:.1f} s; record in {OUT.name}/{stem}.json")
    for name, m in reported.items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:44s} {shown:>14s} {m['unit']}")
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": reported,
    }))
    return 0 if not log.failures else 1


if __name__ == "__main__":
    sys.exit(main())
