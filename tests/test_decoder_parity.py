"""One complex-array decoder: parity with the two-path decoder it replaced.

The version before kept a fast path (_pairs_fast) and, when it refused, a
second decoder: a per-element walk (_vector_in, _matrix_in and the pair-level
_complex_in) that built the array again from checked entries. It is kept here
as the reference. On drawn JSON values, and on well-formed pair arrays with
one entry changed, modelio._complex_in returns the reference's array bit for
bit (signed zeros included) or raises its ModelFormatError message word for
word. Whenever the reference's fast path refuses a value, the new decoder
raises: the walk that follows only names the fault. No value makes numpy warn.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimeas.modelio import ModelFormatError, _complex_in

# --- the reference: the fast path and the per-element walk of the version before -------


def ref_pairs_fast(node, ndim: int) -> np.ndarray | None:
    rows = node if ndim == 2 else [node]
    if type(node) is not list or not all(type(row) is list for row in rows):
        return None
    try:
        a = np.array(node, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or not np.isfinite(a).all():
        return None
    if not all(type(x) is float or type(x) is int for row in rows for pair in row for x in pair):
        return None
    return a.view(np.complex128)[..., 0]


def ref_complex_in(node, where: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        raise ModelFormatError(f"{where}: expected a [re, im] pair, got {node!r}")
    try:
        z = complex(node[0], node[1])
    except OverflowError:
        raise ModelFormatError(f"{where}: non-finite value {node!r}") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ModelFormatError(f"{where}: non-finite value {node!r}")
    return z


def ref_vector_in(node, where: str) -> np.ndarray:
    fast = ref_pairs_fast(node, 1)
    if fast is not None:
        return fast
    if not isinstance(node, list) or not node:
        raise ModelFormatError(f"{where}: expected a non-empty array of complex scalars")
    return np.array(
        [ref_complex_in(z, f"{where}[{i}]") for i, z in enumerate(node)], dtype=np.complex128
    )


def ref_matrix_in(node, where: str) -> np.ndarray:
    fast = ref_pairs_fast(node, 2)
    if fast is not None:
        return fast
    if not isinstance(node, list) or not node:
        raise ModelFormatError(f"{where}: expected a non-empty array of rows")
    rows = [ref_vector_in(row, f"{where}[{i}]") for i, row in enumerate(node)]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ModelFormatError(f"{where}: rows have inconsistent lengths")
    return np.vstack(rows)


# --- drawn JSON values -----------------------------------------------------------------

NUMBERS = (
    st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 1, -0.0, 0.0, 2**1024 - 2**971 + 1, 1e308, -1e308])
)
# values no float64 holds: JSON's NaN and Infinity tokens, and ints that round past the largest float
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf"), 2**1024 - 2**970, -(10**400)])
SCALARS = (
    NUMBERS
    | st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.sampled_from(["0.5", "1", "nan", "inf", "-1e999", " 2 "])
)
# values np.array turns into floats, or into nan, though they are not JSON numbers
NOT_NUMBERS = st.sampled_from([True, False, None, "0.5", "-1", "inf"])
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=24,
)
GOOD = st.integers(min_value=-(2**60), max_value=2**60) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mutated_pair_arrays(draw):
    """A well-formed array of [re, im] pairs, of 1 or 2 dimensions, with at most one entry changed."""
    pair = st.lists(GOOD, min_size=2, max_size=2)
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    node = draw(st.lists(st.lists(pair, min_size=width, max_size=width), min_size=rows, max_size=rows))
    ndim = draw(st.sampled_from([1, 2]))
    node = node if ndim == 2 else node[0]
    change = draw(st.sampled_from(["component", "replace", "delete", "append", "keep"]))
    # the path to one row, pair or component; "component" changes a component alone
    path = []
    for _ in range(ndim + 1 if change == "component" else draw(st.integers(1, ndim + 1))):
        path.append(draw(st.integers(0, len(node_at(node, path)) - 1)))
    parent, last = node_at(node, path[:-1]), path[-1]
    # a number, a pair or a row of numbers (non-finite ones often), or any JSON value
    number = NUMBERS | NON_FINITE
    pairs = st.lists(number, min_size=2, max_size=2)
    value = st.one_of(number, pairs, st.lists(pairs | pair, min_size=1, max_size=5), JSON_VALUES)
    if change == "component":
        parent[last] = draw(NON_FINITE | NOT_NUMBERS)
    elif change == "replace":
        parent[last] = draw(value)
    elif change == "delete":
        del parent[last]
    elif change == "append":
        parent.append(draw(value | pair))
    return node


def node_at(node, path):
    for i in path:
        node = node[i]
    return node


def outcome(decode, node):
    """(shape, bytes) of the decoded array, or the ModelFormatError message."""
    try:
        a = decode(node)
    except ModelFormatError as exc:
        return str(exc)
    assert a.dtype == np.complex128
    return a.shape, a.tobytes()


def check_parity(node):
    for ndim, reference in ((1, ref_vector_in), (2, ref_matrix_in)):
        expected = outcome(lambda n: reference(n, "field"), node)
        got = outcome(lambda n: _complex_in(n, ndim, "field"), node)
        assert got == expected, (ndim, node)
        if ref_pairs_fast(node, ndim) is None:
            assert isinstance(got, str), (ndim, node)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(JSON_VALUES)
def test_json_values_decode_as_before(node):
    check_parity(node)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(mutated_pair_arrays())
def test_mutated_pair_arrays_decode_as_before(node):
    check_parity(node)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        "[[0.5,-0.0],[1,2]]",
        "[[[0.5,-0.0],[1,2]],[[3,4],[-0.0,-0.0]]]",
        "[[[1,0]],[[1,0],[0,0]]]",
        "[[[1,0],[0,1]],[[1,0],[NaN,0]]]",
        "[[1e400,0]]",
        "[[1,true]]",
        '[[1,"0.5"]]',
        "[[1,2,3]]",
        "[]",
        "[[]]",
        "[[[]]]",
        "{}",
        "5",
        "null",
        '"[1, 2]"',
    ],
)
def test_file_texts_decode_as_before(text):
    check_parity(json.loads(text))
