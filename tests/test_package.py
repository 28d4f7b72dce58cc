import drbcd
from drbcd import datagen, driver, factorization, schedule, subsolver, tensors


def test_package_exports_the_core_modules_lists():
    names = drbcd.__all__
    assert len(names) == len(set(names))
    core = [datagen, driver, factorization, schedule, subsolver, tensors]
    assert names == [name for module in core for name in module.__all__] + ["__version__"]
    for module in core:
        for name in module.__all__:
            assert getattr(drbcd, name) is getattr(module, name)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from drbcd import *", namespace)
    assert set(drbcd.__all__) <= set(namespace)
