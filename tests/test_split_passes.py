"""The dense passes and the set-up passes (the low-rank generator's
product, the entry check and the surrogate's pattern draws) with their
slabs shared among threads.

Tier-1 runs at the default BLAS thread count, where on a host with one
OpenBLAS thread per core no pass splits, so these tests force the split by
patching the thread count, and check the rule that sets it in subprocesses.
"""

import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from drbcd import datagen, tensors
from drbcd.datagen import SynthSpec, synthetic_lowrank
from drbcd.driver import SolverConfig, run
from drbcd.factorization import NtfProblem, init_factors, run_mu
from drbcd.schedule import RadiusSchedule

from _oracles import cp_reconstruct

SRC = str(Path(tensors.__file__).resolve().parents[1])


@pytest.fixture
def own_pool(monkeypatch):
    """A fresh helper pool for the test, shut down after it, and a thread
    switch every microsecond while it runs, so that helpers and the caller
    interleave at fine grain."""
    monkeypatch.setattr(tensors, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        if tensors._pool is not None:
            tensors._pool.shutdown(wait=True)


def with_threads(monkeypatch, threads):
    """Dense passes on ``threads`` threads from now on (1: the serial loop)."""
    monkeypatch.setattr(tensors, "_pass_threads", lambda: (threads, threads, 1))


def both(monkeypatch, threads, compute):
    """``compute()`` on the serial loop, then split among ``threads`` threads."""
    with_threads(monkeypatch, 1)
    serial = compute()
    assert tensors._pool is None
    with_threads(monkeypatch, threads)
    return serial, compute()


# Objective rows of (7, 9, 11) are 88 bytes and the last-mode MTTKRP's
# middle cells at rank 3 are 264: one slab each; 16 slabs, the last of 3
# rows, and 9 slabs; 3 slabs (25, 25, 13 rows) and 2 (8 and 1 cells), fewer
# than the helpers of 5 threads; and one row or cell a slab.
SLAB_SIZES = [None, 352, 2200, 1]


@pytest.mark.parametrize("shape", [(7, 9, 11), (3, 4, 5, 6), (13, 17)])
@pytest.mark.parametrize("slab_bytes", SLAB_SIZES)
@pytest.mark.parametrize("threads", [2, 3, 5])
def test_split_dense_passes_keep_the_serial_bits(monkeypatch, own_pool, shape, slab_bytes, threads):
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(len(shape) + threads)
    x = rng.random(shape)
    blocks = [rng.random((d, 3)) for d in shape]

    def compute():
        problem = NtfProblem(x, 3)
        total = problem.objective(blocks)
        memoized = problem._memo_partial(blocks[-1])[0]  # the objective's partial, a memo hit
        return (
            total.hex(),
            memoized.tobytes(),
            tensors._last_mode_partial(x, blocks[-1]).tobytes(),
            tensors._last_mode_mttkrp(x, blocks[:-1]).tobytes(),
        )

    serial, split = both(monkeypatch, threads, compute)
    assert split == serial
    rows = math.prod(shape[:-1])
    if len(tensors._row_slabs(rows, 8 * shape[-1])) > 1:
        assert tensors._pool is not None


def sparse_exact_fit(rng, shape, rank):
    """Sparse data of exact rank ``rank`` and its factors: at the factors
    the nonzero formula is refused and the objective takes the dense pass
    over slabs filled from the coordinates."""
    factors = []
    for d in shape:
        f = np.zeros((d, rank))
        for a in range(rank):
            f[rng.choice(d, 3, replace=False), a] = 0.5 + rng.random(3)
        factors.append(f)
    return cp_reconstruct(factors, np.ones((rank, 1)))[..., 0], factors


@pytest.mark.parametrize("slab_bytes", [None, 8 * 200 * 7, 1])
@pytest.mark.parametrize("threads", [2, 5])
def test_split_rounding_fallback_keeps_the_serial_bits(monkeypatch, own_pool, slab_bytes, threads):
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(threads)
    data, factors = sparse_exact_fit(rng, (20, 30, 200), 2)
    problem = NtfProblem(data, 2)
    assert problem._coo is not None and problem._coo_objective(factors) is None
    near = [f + 1e-3 * rng.random(f.shape) for f in factors]
    serial, split = both(monkeypatch, threads, lambda: [problem.objective(b).hex() for b in (factors, near)])
    assert split == serial


@pytest.mark.parametrize("threads", [2, 3, 5])
def test_split_runs_keep_the_serial_traces(monkeypatch, own_pool, threads):
    # Whole BCD-DR and MU runs under the sweep clock: every record, the
    # objective and the stationarity measure included, bit for bit.
    monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * 30 * 9)
    rng = np.random.default_rng(threads)
    x = rng.random((12, 25, 30))
    start = init_factors(x.shape, 3, seed=threads).to_blocks()
    cfg = SolverConfig(
        schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=1.0), max_sweeps=6, clock="sweep"
    )

    def compute():
        outputs = []
        for solve in (run, run_mu):
            final, trace = solve(NtfProblem(x, 3), start, cfg)
            outputs.append(([b.tobytes() for b in final], trace))
        return outputs

    serial, split = both(monkeypatch, threads, compute)
    assert split == serial
    assert tensors._pool is not None


@pytest.mark.parametrize("threads", [3, 5])
def test_concurrent_split_runs_keep_the_serial_traces(monkeypatch, own_pool, threads):
    # Two runs at once, each in its own thread: their passes share one
    # helper pool, and wait on no helper that the other keeps busy.
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * 30 * 5)
    rng = np.random.default_rng(threads)
    x = rng.random((12, 25, 30))
    starts = [init_factors(x.shape, 3, seed=seed).to_blocks() for seed in (1, 2)]
    cfg = SolverConfig(
        schedule=RadiusSchedule(kind="power_log", beta=1.0, c_prime=1.0), max_sweeps=5, clock="sweep"
    )

    def solve(args):
        solver, start = args
        final, trace = solver(NtfProblem(x, 3), start, cfg)
        return [b.tobytes() for b in final], trace

    cells = [(solver, start) for solver in (run, run_mu) for start in starts]
    with_threads(monkeypatch, 1)
    serial = [solve(cell) for cell in cells]
    with_threads(monkeypatch, threads)
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(solve, cells, timeout=300))
    assert concurrent == serial
    assert tensors._pool is not None


def test_a_pass_never_waits_on_a_busy_pool(monkeypatch, own_pool):
    # The one helper is busy with another task: the caller takes every slab
    # itself, cancels its queued task and returns without waiting.
    with_threads(monkeypatch, 2)
    tensors._slab_map(lambda start, stop: None, [(0, 1), (1, 2)])  # makes the pool
    release = threading.Event()
    busy = tensors._pool.submit(lambda: release.wait(30))
    try:
        ran_in = []

        def slab(start, stop):
            ran_in.append(threading.get_ident())
            return start

        began = time.monotonic()
        got = tensors._slab_map(slab, [(0, 1), (1, 2), (2, 3)])
        took = time.monotonic() - began
    finally:
        release.set()
    assert busy.result(timeout=30)
    assert got == [0, 1, 2] and ran_in == [threading.get_ident()] * 3
    assert took < 10


def test_an_error_in_a_slab_is_raised_by_the_caller(monkeypatch, own_pool):
    with_threads(monkeypatch, 3)

    def fail_on_4(start, stop):
        if start == 4:
            raise FloatingPointError("slab 4")
        return start

    with pytest.raises(FloatingPointError, match="slab 4"):
        tensors._slab_map(fail_on_4, [(k, k + 1) for k in range(40)])
    assert tensors._slab_map(fail_on_4, [(k, k + 1) for k in range(4)]) == [0, 1, 2, 3]


def test_every_slab_of_a_split_pass_runs_under_the_callers_error_settings(monkeypatch, own_pool):
    # Slow slabs, so that the helper takes its share of them; each reads the
    # floating-point settings it runs under, as the serial loop's would.
    with_threads(monkeypatch, 2)

    def setting(start, stop):
        time.sleep(0.002)
        return np.geterr()["over"], threading.current_thread().name

    with np.errstate(over="raise"):
        got = tensors._slab_map(setting, [(k, k + 1) for k in range(20)])
    assert [over for over, _ in got] == ["raise"] * 20
    assert any(name.startswith("drbcd-slabs") for _, name in got)


@pytest.mark.parametrize("threads", [2, 3, 5])
def test_split_generator_keeps_the_whole_products_bits(monkeypatch, own_pool, threads):
    # At paper scale every block of 2, 3 or 5 holds at least 2**20 entries.
    specs = [SynthSpec(dims=(100, 200, 300), rank=rank, seed=rank) for rank in range(1, 6)]

    def compute():
        return [hashlib.sha256(synthetic_lowrank(spec)[0]).hexdigest() for spec in specs]

    serial, split = both(monkeypatch, threads, compute)
    assert split == serial
    assert len(tensors._product_blocks(100, 200 * 300)) == threads
    assert tensors._pool is not None


@pytest.mark.parametrize("threads, rows, cols, blocks", [
    (2, 4, 2**19, 2),       # 2 rows and 2**20 entries a block: splits
    (2, 4, 2**19 - 1, 1),   # one entry short of that
    (2, 5, 2**19 - 1, 1),   # the smaller block of 2 and 3 rows is short
    (2, 3, 2**20, 1),       # a block of 1 row: the matrix-vector path
    (2, 1, 2**22, 1),
    # More threads than blocks that hold the rule: paper_fit's product, 5
    # blocks of 20 rows, and surrogate_bound's pattern of 1,125,000 rows of
    # 4, 4 blocks, at one BLAS thread on 5 to 8 cores.
    *((threads, 100, 200 * 300, 5) for threads in range(5, 9)),
    *((threads, 90 * 500 * 100 // 4, 4, 4) for threads in range(5, 9)),
])
def test_product_splits_only_into_blocks_of_2_rows_and_2_to_the_20_entries(monkeypatch, threads, rows, cols, blocks):
    with_threads(monkeypatch, threads)
    ranges = tensors._product_blocks(rows, cols)
    assert len(ranges) == blocks
    assert ranges[0][0] == 0 and ranges[-1][1] == rows
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    if blocks > 1:
        least = min(stop - start for start, stop in ranges)
        assert least >= 2 and least * cols >= tensors.PRODUCT_BLOCK_ENTRIES


def test_a_product_too_small_to_split_does_not_ask_for_the_thread_count(monkeypatch):
    def no_query():
        raise AssertionError("the thread count was read")

    monkeypatch.setattr(tensors, "_pass_threads", no_query)
    assert tensors._product_blocks(3, 2**20) == [(0, 3)]
    assert tensors._product_blocks(4, 2**19 - 1) == [(0, 4)]
    x = synthetic_lowrank(SynthSpec(dims=(20, 25, 30), rank=3, seed=2))[0]
    assert x.shape == (20, 25, 30)


def test_generator_just_under_the_split_is_one_product(monkeypatch, own_pool):
    # 4 x 512 x 1023 rows of 523,776 entries: two blocks of 2 rows would
    # hold 1,047,552 entries each, just under 2**20.
    with_threads(monkeypatch, 2)
    seen = []
    slab_map = tensors._slab_map
    monkeypatch.setattr(datagen, "_slab_map", lambda fn, ranges: seen.append(ranges) or slab_map(fn, ranges))
    x = synthetic_lowrank(SynthSpec(dims=(4, 512, 1023), rank=2, seed=3))[0]
    assert seen == [[(0, 4)]] and tensors._pool is None
    rng = np.random.Generator(np.random.Philox(key=3))
    factors = [rng.random((d, 2)) for d in (4, 512, 1023)]
    whole = factors[0] @ tensors._khatri_rao_native([np.ones((1, 2))] + factors[1:]).T
    assert x.tobytes() == whole.tobytes()


# 1,001 and 3 entries (not multiples of 4), 960 and 24 (multiples); with
# blocks of at least 8 entries and chunks of 24 draws, the first two split
# among every thread count, each block in several chunks, the 24 among 2
# and 3 threads, and the 3 entries are one block.
SURROGATE_DIMS = [(7, 11, 13), (8, 10, 12), (3,), (4, 6)]


@pytest.mark.parametrize("threads", [2, 3, 5])
def test_split_surrogate_keeps_the_serial_bits(monkeypatch, own_pool, threads):
    monkeypatch.setattr(tensors, "PRODUCT_BLOCK_ENTRIES", 8)
    monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * 24)
    specs = [
        SynthSpec(dims=dims, rank=1, seed=seed, density=density, target_mean_abs=0.25)
        for seed, dims in enumerate(SURROGATE_DIMS)
        for density in (0.01, 0.3, 1.0)
    ]

    def compute():
        out = []
        for spec in specs:
            try:
                x = datagen.sparse_surrogate(spec)
            except ValueError as exc:  # a pattern with no nonzero, on both sides
                out.append(str(exc))
                continue
            out.append((x.positions.tobytes(), x.values.tobytes()))
        return out

    serial, split = both(monkeypatch, threads, compute)
    assert split == serial
    assert sum(isinstance(x, tuple) for x in serial) >= 9
    assert tensors._pool is not None


def surrogate_blocks(monkeypatch, size):
    """The blocks that the surrogate's pattern of ``size`` entries is drawn in."""
    seen = []
    slab_map = tensors._slab_map
    monkeypatch.setattr(datagen, "_slab_map", lambda fn, ranges: seen.append(ranges) or slab_map(fn, ranges))
    datagen.sparse_surrogate(SynthSpec(dims=(size,), rank=1, seed=6, density=0.01, target_mean_abs=0.25))
    (blocks,) = seen
    return blocks


@pytest.mark.parametrize("threads", [2, 3, 5])
@pytest.mark.parametrize("over", [False, True])
def test_surrogate_splits_only_into_blocks_of_2_to_the_20_entries(monkeypatch, own_pool, threads, over):
    # threads * 2**18 rows of 4 entries give each of ``threads`` blocks
    # 2**20 entries; one row fewer leaves room for one block fewer, which is
    # one block, the whole pattern, on 2 threads. Both sizes are 3 past a
    # multiple of 4, which the last block takes.
    rows = threads * 2**18 - (not over)
    size = 4 * rows + 3
    with_threads(monkeypatch, threads)
    blocks = surrogate_blocks(monkeypatch, size)
    assert len(blocks) == (threads if over else threads - 1 if threads > 2 else 1)
    assert blocks[0][0] == 0 and blocks[-1][1] == size
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert all(start % 4 == 0 for start, _ in blocks)
    if len(blocks) > 1:
        assert min(stop - start for start, stop in blocks) >= tensors.PRODUCT_BLOCK_ENTRIES


class CountedPhiloxRaises(np.random.Philox):
    """A Philox that raises when made with a nonzero counter: in the
    surrogate's pattern, every block but the first."""

    def __init__(self, *args, counter=None, **kwargs):
        if counter:
            raise RuntimeError("block past the start")
        super().__init__(*args, counter=counter, **kwargs)


@pytest.mark.parametrize("threads", [2, 5])
def test_an_error_in_a_surrogate_block_is_raised_by_the_caller(monkeypatch, own_pool, threads):
    monkeypatch.setattr(tensors, "PRODUCT_BLOCK_ENTRIES", 8)
    monkeypatch.setattr(np.random, "Philox", CountedPhiloxRaises)
    with_threads(monkeypatch, threads)
    with pytest.raises(RuntimeError, match="block past the start"):
        datagen._draws_below(7, 200, 0.3)
    assert tensors._pool is not None


@pytest.mark.parametrize("slab_bytes", [None, 8 * 7, 800, 8])
@pytest.mark.parametrize("threads", [2, 3, 5])
def test_split_entry_check_keeps_the_serial_bits(monkeypatch, own_pool, slab_bytes, threads):
    if slab_bytes is not None:
        monkeypatch.setattr(tensors, "SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(threads)
    flat = rng.standard_normal(70_001) * 10.0 ** rng.integers(-5, 5, 70_001)

    def compute():
        return [value.hex() for value in tensors._checked_range(flat)]

    serial, split = both(monkeypatch, threads, compute)
    assert split == serial
    assert tensors._pool is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("threads", [1, 2, 5])
def test_split_entry_check_refuses_a_non_finite_entry_in_any_slab(monkeypatch, own_pool, bad, where, threads):
    monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * 100)
    with_threads(monkeypatch, threads)
    x = np.random.default_rng(0).random((10, 20, 30))  # 60 slabs of 100 entries
    x.flat[{"first": 3, "middle": 3017, "last": 5999}[where]] = bad
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        tensors._checked_range(x.ravel())
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        tensors.as_tensor(x)
    with pytest.raises(ValueError, match="tensor entries must be finite"):
        NtfProblem(x, 2)


@pytest.mark.parametrize("threads", [1, 2, 5])
def test_entry_check_of_huge_entries_warns_only_where_its_square_sum_is_used(monkeypatch, own_pool, threads):
    # The square sum of entries of 1e200 overflows. ``as_tensor`` ignores
    # it on every thread; ``NtfProblem`` reads it and warns, as it does serially.
    monkeypatch.setattr(tensors, "SLAB_BYTES", 8 * 100)
    with_threads(monkeypatch, threads)
    x = np.full((10, 20, 30), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tensors.as_tensor(x) is x
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        assert NtfProblem(x, 2)._norm_sq == np.inf
    if threads > 1:
        assert tensors._pool is not None


SPARSE_RUN = r"""
import sys, threading
import numpy as np
from drbcd import tensors
from drbcd.datagen import SynthSpec, sparse_surrogate, synthetic_lowrank
from drbcd.driver import SolverConfig, run
from drbcd.factorization import NtfProblem, init_factors, run_mu
from drbcd.schedule import RadiusSchedule
# Set-up at surrogate_bound's scale: the check of 45k nonzeros, one slab;
# and a dense build below the generator's split.
listed = tensors.SparseTensor((90, 500, 100), np.arange(0, 4_500_000, 100), np.full(45_000, 0.067))
bound = NtfProblem(listed, 5)
assert bound._coo is not None and bound._coo[2].nbytes <= 512 << 10
NtfProblem(synthetic_lowrank(SynthSpec(dims=(20, 25, 30), rank=3, seed=2))[0], 3)
spec = SynthSpec(dims=(18, 100, 20), rank=3, seed=4, density=0.01, target_mean_abs=0.00067)
problem = NtfProblem(sparse_surrogate(spec), 3)
assert problem._coo is not None
start = init_factors(spec.dims, 3, seed=5, box_bound=problem.box_bound).to_blocks()
cfg = SolverConfig(schedule=RadiusSchedule(kind="power_log", beta=0.5, c_prime=3.0), max_sweeps=8)
for solve in (run, run_mu):
    solve(problem, start, cfg)
print(threading.active_count(), "concurrent.futures" in sys.modules)
# surrogate_bound's own build splits its pattern's draws.
sparse_surrogate(SynthSpec(dims=(90, 500, 100), rank=5, seed=1, density=0.01, target_mean_abs=0.00067))
print(tensors._pass_threads()[0], threading.active_count() > 1, tensors._pool is not None)
"""


def test_a_sparse_run_starts_no_thread_and_imports_no_pool():
    # At one BLAS thread a dense pass would split on any host with two
    # cores; the nonzero-only passes never reach the pool, and neither do
    # a sparse set-up whose list is one slab or a small dense build. The
    # surrogate's pattern at surrogate_bound's scale then splits, into as
    # many blocks as there are cores, up to the 4 that its 4.5M entries
    # fill with 2**20 each.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SPARSE_RUN], env=env, capture_output=True, text=True, check=True)
    solves, build = proc.stdout.splitlines()
    assert solves.split() == ["1", "False"]
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip("one CPU: the pattern's blocks have no core for a helper, so the build does not split")
    assert build.split() == [str(cores), "True", "True"]


WORKER_COUNT = r"""
import ctypes, sys, threading
from pathlib import Path
import numpy as np
from drbcd import tensors
from drbcd.datagen import SynthSpec, synthetic_lowrank
from drbcd.factorization import NtfProblem
x = synthetic_lowrank(SynthSpec(dims=(100, 200, 300), rank=5))[0]
NtfProblem(x, 5)
u = np.random.default_rng(1).random((300, 5))
tensors._last_mode_partial(x, u)
print(*tensors._pass_threads(), threading.active_count(), "concurrent.futures" in sys.modules)
# A pin made after a pass is read by the next pass.
lib = next((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"), None)
setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None) if lib else None
if setter is None:
    print("no setter")
else:
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)
    tensors._last_mode_partial(x, u)
    print(tensors._pass_threads()[0], tensors._pool is not None)
"""


def test_worker_count_is_cores_over_blas_threads():
    # A paper-shaped build and pass split at one OpenBLAS thread, among one
    # thread per core, and do not at one OpenBLAS thread per core, where
    # they start no thread and import no pool, until BLAS is pinned to one.
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip("one CPU: no BLAS thread count leaves a core for a helper, so nothing would split")
    outputs = {}
    for blas in (1, cores):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas), OMP_NUM_THREADS=str(blas), PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", WORKER_COUNT], env=env, capture_output=True, text=True, check=True)
        outputs[blas] = proc.stdout.splitlines()
    threads, seen_cores, seen_blas, active, imported = outputs[1][0].split()
    assert (int(threads), int(seen_cores), int(seen_blas)) == (cores, cores, 1)
    assert 1 < int(active) <= cores and imported == "True"
    # OpenBLAS may run fewer threads than asked for on a host with more
    # cores than its build allows; the rule then leaves room for helpers.
    threads, seen_cores, seen_blas, active, imported = outputs[cores][0].split()
    assert int(threads) == max(1, cores // int(seen_blas)) and int(seen_cores) == cores
    if int(seen_blas) == cores:
        assert (threads, active, imported) == ("1", "1", "False")
    if outputs[cores][1] != "no setter":
        assert outputs[cores][1].split() == [str(cores), "True"]
