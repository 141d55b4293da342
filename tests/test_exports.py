"""The public names: every ``__all__`` entry of the package and of each of
its modules resolves under a star import, and each is declared once."""

import importlib
import pkgutil

import pytest

import toepspec
from toepspec import expansion, harness, linalg, noise, symbol, toeplitz

MODULES = ["toepspec"] + sorted(
    f"toepspec.{m.name}" for m in pkgutil.iter_modules(toepspec.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert set(exported) <= namespace.keys()


def test_package_exports_the_layer_lists_once():
    layers = (symbol, linalg, toeplitz, noise, expansion, harness)
    want = ["__version__", *(name for layer in layers for name in layer.__all__)]
    assert toepspec.__all__ == want
    assert len(set(want)) == len(want)
