"""The public names: every ``__all__`` entry of the package and of each of
its modules resolves under a star import."""

import importlib
import pkgutil

import pytest

import toepspec

MODULES = ["toepspec"] + sorted(
    f"toepspec.{m.name}" for m in pkgutil.iter_modules(toepspec.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert set(exported) <= namespace.keys()
