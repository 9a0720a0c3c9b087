"""The package namespace: each module's ``__all__`` is its public API."""

import zczseq
from zczseq import construction, correlation, gbf, qscdma

MODULES = {"gbf": gbf, "correlation": correlation, "construction": construction, "qscdma": qscdma}


def test_package_exports_every_module_api_and_the_modules():
    names = {name for module in MODULES.values() for name in module.__all__}
    assert sorted(zczseq.__all__) == sorted(names | set(MODULES))
    for module in MODULES.values():
        assert all(getattr(zczseq, name) is getattr(module, name) for name in module.__all__)
