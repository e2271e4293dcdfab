"""The package's ``__all__`` and its public names agree.

A function removed from a module but left in ``__all__`` would break
``from deutschsim import *``; a re-export missing from ``__all__`` would
be public by accident.
"""

import inspect

import deutschsim


def test_every_name_in_all_resolves():
    assert len(set(deutschsim.__all__)) == len(deutschsim.__all__)
    missing = [name for name in deutschsim.__all__ if not hasattr(deutschsim, name)]
    assert missing == []
    namespace = {}
    exec("from deutschsim import *", namespace)
    assert set(deutschsim.__all__) <= set(namespace)


def test_every_public_re_export_is_listed():
    public = {
        name
        for name, value in vars(deutschsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(deutschsim.__all__) - {"__version__"}
