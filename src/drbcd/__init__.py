"""Block coordinate descent with a diminishing search radius.

Core pieces: dense tensor kernels (:mod:`drbcd.tensors`), the weight/radius
schedule (:mod:`drbcd.schedule`), the box-and-ball quadratic sub-solver
(:mod:`drbcd.subsolver`), the sweep driver with trace diagnostics
(:mod:`drbcd.driver`), the nonnegative factorization problem and baselines
(:mod:`drbcd.factorization`), deterministic data generation
(:mod:`drbcd.datagen`), and the benchmark harness (:mod:`drbcd.experiment`)
with its CLI (:mod:`drbcd.cli`).

The package exports what each core module lists in its ``__all__``.
"""

from . import datagen, driver, factorization, schedule, subsolver, tensors

_CORE = (datagen, driver, factorization, schedule, subsolver, tensors)
for _module in _CORE:
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module

__version__ = "0.1.0"

__all__ = [name for module in _CORE for name in module.__all__] + ["__version__"]
