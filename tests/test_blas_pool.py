"""One BLAS pool: every dense product of the library runs on scipy's BLAS.

numpy and scipy each bundle an OpenBLAS with its own worker pool, and an
idle worker spins for a while after each call; a numpy product next to a
scipy factorization makes the two pools compete for the same cores.  The
guard below keeps numpy's products out of `src/bfsmooth/`, and the other
tests check the one helper that replaces them, `_blas.dot`, against `@`.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import bfsmooth
from bfsmooth._blas import dot

SOURCES = sorted(Path(bfsmooth.__file__).parent.glob("*.py"))
HELPER = ("_blas.py", "dot")  # the one place a numpy product may remain
PRODUCTS = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum"}
NUMPY = {"np", "numpy"}


def _is_numpy(node) -> bool:
    return isinstance(node, ast.Name) and node.id in NUMPY


def _offences(tree: ast.AST, skip: set[int]) -> list[tuple[int, str]]:
    """(line, what) of each numpy product or numpy.linalg use outside the
    nodes in `skip`."""
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            if _is_numpy(node.value) and node.attr in PRODUCTS:
                found.append((node.lineno, f"np.{node.attr}"))
            elif (isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                  and _is_numpy(node.value.value) and node.attr != "norm"):
                found.append((node.lineno, f"np.linalg.{node.attr}"))
            elif node.attr == "dot" and not _is_numpy(node.value):
                found.append((node.lineno, ".dot method"))
    return found


def _helper_nodes(tree: ast.AST, path: Path) -> set[int]:
    """ids of every node inside the helper's body."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) == HELPER):
            return {id(n) for n in ast.walk(node)}
    return set()


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"_blas.py", "assembly.py", "interpolant.py", "kernels.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_products(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _offences(tree, _helper_nodes(tree, path))
    assert not found, f"{path.name}: numpy products (use _blas.dot): {found}"


def test_guard_sees_each_form():
    code = ("a @ b\nc @= d\nnp.dot(a, b)\nnumpy.matmul(a, b)\nnp.einsum('i,i', a, b)\n"
            "np.linalg.solve(a, b)\nnp.linalg.LinAlgError\na.dot(b)\n"
            "np.linalg.norm(a)\nscipy.linalg.solve(a, b)\nblas.ddot(a, b)\n")
    found = [what for _, what in sorted(_offences(ast.parse(code), set()))]
    assert found == ["@", "@", "np.dot", "np.matmul", "np.einsum", "np.linalg.solve",
                     "np.linalg.LinAlgError", ".dot method"]


def _arrays():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 30))
    B = rng.standard_normal((30, 20))
    return rng, A, B


def _cases():
    rng, A, B = _arrays()
    x, z = rng.standard_normal(30), rng.standard_normal(40)
    F = np.asfortranarray(A)
    return {
        "C matrix-vector": (A, x),
        "F matrix-vector": (F, x),
        "transposed view, vector": (A.T, z),
        "vector-matrix": (z, A),
        "vector-F matrix": (z, F),
        "vector-vector": (x, x),
        "C matrix-matrix": (A, B),
        "F by C": (F, B),
        "C by F": (A, np.asfortranarray(B)),
        "transposed views": (B.T, A.T),
        "fancy-indexed rows": (A[[3, 0, 17, 17]], B),
        "fancy-indexed rows, vector": (A[[5, 2]], x),
        "strided view": (A[::2, ::3], x[::3]),
        "one row": (A[:1], B),
        "one row, vector": (A[:1], x),
        "one column": (A, B[:, :1]),
        "size 0 rows": (A[:0], B),
        "size 0 columns": (A, B[:, :0]),
        "size 0 inner": (np.zeros((4, 0)), np.zeros((0, 3))),
        "size 0 vector": (np.zeros((4, 0)), np.zeros(0)),
        "size 0 vectors": (np.zeros(0), np.zeros(0)),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_dot_matches_matmul(name):
    a, b = _cases()[name]
    got, want = dot(a, b), a @ b
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    if np.ndim(got) == 2:
        assert got.flags.c_contiguous  # as numpy's result


def test_dot_does_not_modify_inputs():
    _, A, B = _arrays()
    A0, B0 = A.copy(), B.copy()
    dot(A, B), dot(A.T, A), dot(A, B[:, 0])
    np.testing.assert_array_equal(A, A0)
    np.testing.assert_array_equal(B, B0)


def test_dot_long_double_keeps_its_precision():
    # BLAS has no long double; such products stay numpy's, unrounded
    _, A, B = _arrays()
    A_ext = A.astype(np.longdouble)
    x = B[:, 0].astype(np.longdouble)
    got = dot(A_ext, x)
    assert got.dtype == np.longdouble
    np.testing.assert_array_equal(got, A_ext @ x)


@pytest.mark.parametrize("a_shape, b_shape", [((3, 4), (5,)), ((3,), (4, 2)),
                                              ((3, 4), (3, 4)), ((2, 2, 2), (2,))])
def test_dot_rejects_misaligned_shapes(a_shape, b_shape):
    with pytest.raises(ValueError):
        dot(np.ones(a_shape), np.ones(b_shape))
