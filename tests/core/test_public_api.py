"""Guards on the public API surface.

Every name a subpackage exports must exist, be importable, and carry a
docstring — the contract a downstream user relies on.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.wse",
    "repro.dataflow",
    "repro.gpu",
    "repro.perf",
    "repro.solver",
    "repro.cluster",
    "repro.par",
    "repro.wave",
    "repro.workloads",
    "repro.util",
]


@pytest.mark.parametrize("name", PACKAGES)
class TestPublicApi:
    def test_package_has_docstring(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, name

    def test_all_exports_exist(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), f"{name} must declare __all__"
        for export in mod.__all__:
            assert hasattr(mod, export), f"{name}.{export} missing"

    def test_exported_objects_documented(self, name):
        mod = importlib.import_module(name)
        for export in mod.__all__:
            obj = getattr(mod, export)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name}.{export} lacks a docstring"

    def test_exported_classes_public_methods_documented(self, name):
        mod = importlib.import_module(name)
        for export in mod.__all__:
            obj = getattr(mod, export)
            if not inspect.isclass(obj):
                continue
            for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
                if meth_name.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                assert meth.__doc__, f"{name}.{export}.{meth_name} lacks a docstring"


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_headline_workflow_importable(self):
        """The README quickstart's imports all resolve."""
        from repro.core import (  # noqa: F401
            FluidProperties,
            Transmissibility,
            compute_flux_residual,
            random_pressure,
        )
        from repro.dataflow import WseFluxComputation  # noqa: F401
        from repro.workloads import make_geomodel  # noqa: F401

    def test_eq4_is_selected_in_one_place(self):
        """The upwind select is the face-flux statement's; the fluid
        model only forms the mobility it selects from."""
        import repro.core
        from repro.core import fluid, kernels

        assert "upwind_mobility" not in repro.core.__all__
        assert not hasattr(fluid, "upwind_mobility")
        assert {"FluxScratch", "face_flux", "upwind_select"} <= set(kernels.__all__)
