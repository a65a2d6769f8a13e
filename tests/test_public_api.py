"""Public-API quality gates.

Checks that hold the library to release discipline:

- every name in every ``__all__`` actually resolves;
- every public module, class and function carries a docstring;
- the package version is coherent;
- no module in the public surface fails to import in isolation;
- every backticked ``repro.…`` name in the prose docs still resolves.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.cells",
    "repro.core",
    "repro.dsp",
    "repro.eval",
    "repro.graph",
    "repro.hw",
    "repro.ml",
    "repro.signals",
    "repro.sim",
    "repro.stream",
]


def _walk_modules():
    seen = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            seen.append(importlib.import_module(f"{package_name}.{info.name}"))
    return seen


ALL_MODULES = _walk_modules()

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
]
#: A backticked dotted name, e.g. `repro.dsp.batch` or the
#: `repro.eval.perf.check_report` of `repro.eval.perf.check_report(report)`.
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix, then walk the rest as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert exported, f"{package_name} should declare __all__"
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        exported = importlib.import_module(package_name).__all__
        assert len(set(exported)) == len(exported), f"duplicates in {package_name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestDocsNames:
    def test_backticked_names_resolve(self):
        names = {
            name
            for path in DOC_FILES
            for name in DOTTED_NAME.findall(path.read_text(encoding="utf-8"))
        }
        assert names
        stale = sorted(name for name in names if not _resolves(name))
        assert not stale, f"docs name what the code no longer has: {stale}"


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_public_members_documented(self, module):
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
            if inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if meth_name.startswith("_"):
                        continue
                    if not inspect.isfunction(meth):
                        continue
                    if meth.__doc__ and meth.__doc__.strip():
                        continue
                    # Overrides of documented base methods inherit their
                    # contract (e.g. SignalGenerator.generate).
                    inherited = any(
                        getattr(getattr(base, meth_name, None), "__doc__", None)
                        for base in obj.__mro__[1:]
                    )
                    if not inherited:
                        undocumented.append(f"{name}.{meth_name}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestErrorTaxonomy:
    def test_every_library_error_derives_from_xproerror(self):
        from repro import errors

        subclasses = [
            obj
            for obj in vars(errors).values()
            if inspect.isclass(obj)
            and issubclass(obj, Exception)
            and obj is not errors.XProError
        ]
        assert subclasses
        for cls in subclasses:
            assert issubclass(cls, errors.XProError), cls
