"""The public functions of the six traced modules stay plain functions.

``bench/spans.py`` wraps every public function that passes
``inspect.isfunction``.  A decorator such as ``functools.lru_cache`` returns
an object that does not, so a cached public function would drop out of the
per-layer trace without any error; caches belong on private helpers.
"""

import importlib
import inspect

import pytest

MODULES = ("state", "gates", "measure", "deutsch", "verify", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_public_functions_are_plain_functions(module):
    mod = importlib.import_module(f"deutschsim.{module}")
    wrapped = [
        attr
        for attr, value in vars(mod).items()
        if not attr.startswith("_")
        and callable(value)
        and not inspect.isclass(value)
        and getattr(value, "__module__", None) == mod.__name__
        and not inspect.isfunction(value)
    ]
    assert wrapped == [], f"public callables of {mod.__name__} that are not functions"
    assert any(
        inspect.isfunction(value) and value.__module__ == mod.__name__
        for attr, value in vars(mod).items()
        if not attr.startswith("_")
    )
