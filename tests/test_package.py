"""The package root's lazy exports (PEP 562): each root name is the object
its submodule defines, so a rename cannot leave a root name that fails only
when first used."""

import importlib

import mvcusum


def test_every_root_name_resolves_to_its_submodule_object():
    wrong = []
    for name in mvcusum.__all__:
        module = importlib.import_module(f"mvcusum.{mvcusum._EXPORTS[name]}")
        if name not in module.__all__:
            wrong.append(f"{name}: not in {module.__name__}.__all__")
        elif getattr(mvcusum, name) is not getattr(module, name):
            wrong.append(f"{name}: not {module.__name__}.{name}")
    assert wrong == []


def test_star_import_binds_every_root_name():
    namespace = {}
    exec("from mvcusum import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(mvcusum.__all__)
