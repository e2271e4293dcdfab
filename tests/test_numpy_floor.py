"""The package reads no name that NumPy added in 2.x.

``pyproject.toml`` declares ``numpy>=1.24``, but the suite runs on one NumPy
only, so a NumPy-2-only call would pass every other test and fail with a
bare ``AttributeError`` on 1.24-1.26.  This test reads the source instead
of running it: every attribute and every name imported from numpy in each
module under ``src/deutschsim`` is checked against a fixed list of names
that are new in NumPy 2.x.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "deutschsim"

# Array-API names of NumPy 2.0, and names whose docstrings in NumPy 2.4 carry
# ``.. versionadded:: 2.x`` (vecmat, matvec, trapezoid).  ``astype`` is left
# out: 1.x arrays have the method.  Names that also live on the standard
# library, such as ``acos`` or ``pow`` on ``math``, are left out too.
NUMPY_2_NAMES = frozenset(
    {
        "mT",
        "matrix_transpose",
        "vecdot",
        "unstack",
        "concat",
        "permute_dims",
        "cumulative_sum",
        "cumulative_prod",
        "isdtype",
        "vecmat",
        "matvec",
        "trapezoid",
        "matrix_norm",
        "vector_norm",
        "svdvals",
        "bitwise_count",
        "unique_all",
        "unique_counts",
        "unique_inverse",
        "unique_values",
        "to_device",
    }
)

MODULES = sorted(SRC.glob("*.py"))


def numpy_2_names(tree: ast.AST) -> list[tuple[int, str]]:
    """Line and name of each attribute, and of each name imported from a
    numpy module, that is in ``NUMPY_2_NAMES``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.extend((node.lineno, a.name) for a in node.names if a.name in NUMPY_2_NAMES)
    return sorted(found)


def test_every_module_is_read():
    assert {path.name for path in MODULES} >= {"state.py", "measure.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_no_numpy_2_name(path):
    assert numpy_2_names(ast.parse(path.read_text(), str(path))) == []


def test_the_reader_finds_an_attribute_and_an_import():
    tree = ast.parse("from numpy.linalg import vector_norm\ngram = u.conj().mT @ u\n")
    assert numpy_2_names(tree) == [(1, "vector_norm"), (2, "mT")]
