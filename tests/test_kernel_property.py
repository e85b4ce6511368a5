"""The packed binary-image kernel against dense and tuple oracles."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from d2dcache.field import FieldMatrix, FieldSpec, mat_rank, solve_in_rowspace

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def dense_solve(target, basis):
    """Gauss-Jordan on basis^T c = target^T; free variables are fixed at zero.

    Returns (coefficients or None, the pivot unknowns in order).
    """
    spec = basis.spec
    n = basis.nrows
    aug = [[basis.rows[j][c] for j in range(n)] + [target[c]] for c in range(basis.ncols)]
    pivot_of_unknown = {}
    pivot_row = 0
    for col in range(n):
        sel = next((r for r in range(pivot_row, len(aug)) if aug[r][col]), None)
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        inv = spec.inv(aug[pivot_row][col])
        aug[pivot_row] = [spec.mul(inv, v) for v in aug[pivot_row]]
        prow = aug[pivot_row]
        for r in range(len(aug)):
            if r != pivot_row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [spec.add(v, spec.mul(f, p)) for v, p in zip(aug[r], prow)]
        pivot_of_unknown[col] = pivot_row
        pivot_row += 1
    if any(aug[r][n] for r in range(pivot_row, len(aug))):
        return None, tuple(pivot_of_unknown)
    coeffs = [0] * n
    for col, r in pivot_of_unknown.items():
        coeffs[col] = aug[r][n]
    return tuple(coeffs), tuple(pivot_of_unknown)


def combine(spec, weights, rows, ncols):
    """sum_k weights[k] * rows[k], entry by entry with FieldSpec.mul and XOR."""
    out = [0] * ncols
    for w, row in zip(weights, rows):
        for j, v in enumerate(row):
            out[j] ^= spec.mul(w, v)
    return tuple(out)


@st.composite
def bases(draw):
    """A random basis over GF(2^m), m <= 4, with some rows forced dependent."""
    spec = FieldSpec(draw(st.integers(1, 4)))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    element = st.integers(0, spec.size - 1)
    rows = []
    for k in range(nrows):
        if k and draw(st.booleans()):
            weights = draw(st.lists(element, min_size=k, max_size=k))
            rows.append(combine(spec, weights, rows, ncols))
        else:
            rows.append(tuple(draw(st.lists(element, min_size=ncols, max_size=ncols))))
    return FieldMatrix.from_rows(spec, rows, ncols=ncols)


@st.composite
def basis_and_target(draw):
    basis = draw(bases())
    spec = basis.spec
    element = st.integers(0, spec.size - 1)
    if draw(st.booleans()):
        weights = draw(st.lists(element, min_size=basis.nrows, max_size=basis.nrows))
        target = combine(spec, weights, basis.rows, basis.ncols)
    else:
        target = tuple(draw(st.lists(element, min_size=basis.ncols, max_size=basis.ncols)))
    return basis, target


@SETTINGS
@given(basis_and_target())
def test_rank_and_solve_agree_with_dense_oracle(case):
    basis, target = case
    expected, pivots = dense_solve(target, basis)
    assert mat_rank(basis) == len(pivots)
    coeffs = solve_in_rowspace(target, basis)
    assert coeffs == expected
    if coeffs is not None:
        # rows that depend on earlier rows are exactly the oracle's non-pivots
        assert all(coeffs[k] == 0 for k in range(basis.nrows) if k not in pivots)
        assert combine(basis.spec, coeffs, basis.rows, basis.ncols) == target


@SETTINGS
@given(bases(), st.data())
def test_matmul_matches_entrywise_product(basis, data):
    spec = basis.spec
    nrows = data.draw(st.integers(0, 4))
    left = [tuple(data.draw(st.lists(st.integers(0, spec.size - 1),
                                     min_size=basis.nrows, max_size=basis.nrows)))
            for _ in range(nrows)]
    product = FieldMatrix.from_rows(spec, left, ncols=basis.nrows).matmul(basis)
    assert product.rows == tuple(combine(spec, row, basis.rows, basis.ncols) for row in left)


def scatter(rows, col_map, new_ncols):
    """Tuple oracle for map_columns: entry j is added into column col_map[j]."""
    out = []
    for row in rows:
        wide = [0] * new_ncols
        for j, v in enumerate(row):
            wide[col_map[j]] ^= v
        out.append(tuple(wide))
    return tuple(out)


@SETTINGS
@given(st.data())
def test_packing_stack_and_column_maps_match_tuple_oracle(data):
    spec = FieldSpec(data.draw(st.integers(1, 4)))
    ncols = data.draw(st.integers(1, 6))
    row = st.lists(st.integers(0, spec.size - 1), min_size=ncols, max_size=ncols).map(tuple)
    top, bottom = (tuple(data.draw(st.lists(row, max_size=4))) for _ in range(2))
    upper = FieldMatrix.from_rows(spec, top, ncols=ncols)
    lower = FieldMatrix.from_rows(spec, bottom, ncols=ncols)
    assert upper.rows == top
    assert upper.stack(lower).rows == top + bottom
    new_ncols = data.draw(st.integers(1, 8))
    col_map = data.draw(st.lists(st.integers(0, new_ncols - 1), min_size=ncols, max_size=ncols))
    assert upper.map_columns(col_map, new_ncols).rows == scatter(top, col_map, new_ncols)
