"""API-surface quality gates: every public item is documented, every
package export resolves, and the reference build stays a test oracle."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.cpu",
    "repro.engine",
    "repro.evaluation",
    "repro.hardening",
    "repro.ir",
    "repro.kernel",
    "repro.passes",
    "repro.profiling",
    "repro.tools",
    "repro.workloads",
]


def _iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.ispkg:
                continue
            yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"
    # __all__ is sorted for readability
    assert list(exported) == sorted(exported, key=str.lower) or list(
        exported
    ) == sorted(exported), f"{package_name}.__all__ not sorted"


def test_every_module_has_a_docstring():
    undocumented = [
        module.__name__
        for module in _iter_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not undocumented, undocumented


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in _iter_modules():
        if module.__name__.endswith("__init__"):
            continue
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, undocumented


def test_version_is_exposed():
    assert repro.__version__


#: The monolithic reference build: tests and benchmarks may import it,
#: production code may not (it must not become a build switch again).
ORACLE = "repro.core.reference"
SRC = Path(repro.__file__).resolve().parent.parent


def _oracle_imports(source: str, package: str):
    """Line numbers in ``source`` (a module of ``package``) that import
    the oracle: absolute or relative imports, or its dotted name as a
    string (``importlib.import_module``)."""
    parts = package.split(".")
    lines = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [module] + [f"{module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        if any(n == ORACLE or n.startswith(ORACLE + ".") for n in names):
            lines.append(node.lineno)
    return lines


def test_oracle_import_scanner_catches_every_form():
    for source in (
        "import repro.core.reference",
        "from repro.core.reference import reference_build",
        "from repro.core import reference",
        "from . import reference",
        "from .reference import reference_prefix",
        "importlib.import_module('repro.core.reference')",
    ):
        assert _oracle_imports(source, "repro.core"), source
    assert _oracle_imports("from ..core import reference", "repro.evaluation")
    assert not _oracle_imports("from .pipeline import Foo", "repro.core")


def test_only_tests_and_benchmarks_import_the_reference_build():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        if ".".join(rel.parts) == ORACLE:
            continue
        package = ".".join(rel.parts[:-1])
        for line in _oracle_imports(path.read_text(), package):
            offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert not offenders, offenders
