"""The four lazily exporting packages keep their public surface."""

import importlib

import pytest

LAZY_PACKAGES = ["repro.dataflow", "repro.wse", "repro.faults", "repro.obs"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_to_its_submodule_attribute(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("repro."):
            assert home.startswith(package + "."), (name, home)
        # bound after the first access: the hook is not consulted again
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=package):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_star_import_exports_all():
    scope: dict = {}
    exec("from repro.faults import *", scope)
    assert {"FaultPlan", "run_chaos", "FaultError"} <= set(scope)
