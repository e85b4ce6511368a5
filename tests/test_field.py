"""Field arithmetic, rank/solve, and MDS generator checks."""

import random
from itertools import combinations, product

import pytest

from d2dcache.errors import ConfigurationError, FieldDomainError
from d2dcache.field import (
    GF2,
    FieldMatrix,
    FieldSpec,
    default_modulus,
    is_irreducible,
    mat_rank,
    mds_generator,
    min_extension_degree,
    solve_in_rowspace,
)

from conftest import row_set, transpose


def schoolbook_mul(a, b, modulus, m):
    """Independent shift-and-reduce oracle for GF(2^m) products."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    deg = modulus.bit_length() - 1
    while acc.bit_length() - 1 >= deg:
        acc ^= modulus << (acc.bit_length() - 1 - deg)
    return acc


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_gf2_add_is_xor():
    assert GF2.add(1, 1) == 0
    assert GF2.add(1, 0) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    f = FieldSpec(m)
    elems = range(f.size)
    for a, b in product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, 1) == a
    for a, b, c in product(elems, repeat=3):
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_axioms_random_gf256():
    f = FieldSpec(8)
    rng = random.Random(0xD2D)
    for _ in range(2000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf256_inverse_exhaustive_against_schoolbook():
    f = FieldSpec(8)
    assert f.modulus == 0x11B
    for a in range(1, 256):
        inv = f.inv(a)
        assert schoolbook_mul(a, inv, 0x11B, 8) == 1
        assert f.mul(a, inv) == 1


def test_table_mul_matches_schoolbook_everywhere():
    f = FieldSpec(8)
    for a in range(0, 256, 7):
        for b in range(256):
            assert f.mul(a, b) == schoolbook_mul(a, b, 0x11B, 8)


def test_inverse_of_zero_rejected():
    with pytest.raises(FieldDomainError):
        FieldSpec(4).inv(0)


def test_irreducibility_checked_at_construction():
    assert is_irreducible(0x11B)
    assert not is_irreducible(0x101)  # x^8 + 1 = (x + 1)^8
    assert all(is_irreducible(FieldSpec(m).modulus) for m in range(1, 17))
    assert default_modulus(2) == 0b111
    assert default_modulus(8) == 0x11B


# ---------------------------------------------------------------------------
# packed matrices: entries are checked once, where rows of ints come in
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows,message", [
    ([[0, 4]], "entry 4 outside GF(2^2)"),
    ([[-1, 0]], "entry -1 outside GF(2^2)"),
    ([[1, 0], [1]], "column count mismatch"),
    ([[1, 0], [1, 0, 1]], "column count mismatch"),
    ([[1, True]], "entry True outside GF(2^2)"),
    ([[1.0, 0]], "entry 1.0 outside GF(2^2)"),
], ids=["too-large", "negative", "ragged", "long-row", "bool", "float"])
def test_from_rows_rejects_non_elements_and_ragged_rows(rows, message):
    with pytest.raises(ConfigurationError) as err:
        FieldMatrix.from_rows(FieldSpec(2), rows)
    assert message in str(err.value)


@pytest.mark.parametrize("images", [(), (0b101,), (0b101, 0b011, 0b110)])
def test_constructor_rejects_image_count_other_than_nrows(images):
    with pytest.raises(ConfigurationError):
        FieldMatrix(GF2, 2, 3, images)


def test_images_hold_entry_j_in_bits_j_m_to_j_m_plus_m():
    f = FieldSpec(3)
    mat = FieldMatrix.from_rows(f, [[1, 0, 7], [0, 5, 0]])
    assert mat.images == (1 | 7 << 6, 5 << 3)
    assert mat.rows == ((1, 0, 7), (0, 5, 0))
    assert FieldMatrix.identity(f, 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    assert mat_rank(FieldMatrix.identity(GF2, 4)) == 4
    zero = FieldMatrix.from_rows(GF2, [[0] * 5 for _ in range(3)])
    assert mat_rank(zero) == 0


def span_size(rows):
    """Brute-force span enumeration oracle over GF(2)."""
    seen = set()
    n = len(rows)
    width = len(rows[0])
    for picks in product([0, 1], repeat=n):
        v = tuple(
            sum(p * r[i] for p, r in zip(picks, rows)) % 2 for i in range(width)
        )
        seen.add(v)
    return len(seen)


def test_rank_of_stacked_placement_columns():
    # one file's coded copies across three caches: parity, first, second half
    rows = [(1, 1), (1, 0), (0, 1)]
    assert span_size(rows) == 4  # spans all of GF(2)^2
    assert mat_rank(FieldMatrix.from_rows(GF2, rows)) == 2


@pytest.mark.parametrize("m", [1, 2])
def test_rank_equals_rank_of_transpose(m):
    f = FieldSpec(m)
    rng = random.Random(17 + m)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        mat = FieldMatrix.from_rows(
            f, [[rng.randrange(f.size) for _ in range(c)] for _ in range(r)]
        )
        assert mat_rank(mat) == mat_rank(transpose(mat))


# ---------------------------------------------------------------------------
# solve_in_rowspace
# ---------------------------------------------------------------------------

def test_solve_recovers_preprocessed_pair():
    # basis rows: both within-file parities and the cross-file coded column
    A1, A2, B1, B2 = range(4)

    def vec(*idx):
        row = [0] * 4
        for i in idx:
            row[i] ^= 1
        return row

    basis = FieldMatrix.from_rows(GF2, [vec(A1, A2), vec(B1, B2), vec(A2, B1)])
    assert solve_in_rowspace(vec(A1, B2), basis) == (1, 1, 1)


def test_solve_unit_and_unrepresentable():
    basis = FieldMatrix.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])
    assert solve_in_rowspace([1, 0, 1], basis) == (1, 0)
    single = FieldMatrix.from_rows(GF2, [[1, 1, 0]])
    assert solve_in_rowspace([1, 0, 0], single) is None


@pytest.mark.parametrize("m", [1, 2])
def test_solve_agrees_with_rank_criterion(m):
    f = FieldSpec(m)
    rng = random.Random(99 + m)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        basis = FieldMatrix.from_rows(
            f, [[rng.randrange(f.size) for _ in range(c)] for _ in range(r)]
        )
        target = [rng.randrange(f.size) for _ in range(c)]
        coeffs = solve_in_rowspace(target, basis)
        grew = mat_rank(basis.stack(FieldMatrix.from_rows(f, [target]))) > mat_rank(basis)
        if coeffs is None:
            assert grew
        else:
            assert not grew
            product_row = FieldMatrix.from_rows(f, [coeffs]).matmul(basis).rows[0]
            assert product_row == tuple(target)


# ---------------------------------------------------------------------------
# MDS generators
# ---------------------------------------------------------------------------

def determinant(rows, f):
    """Cofactor-expansion determinant oracle."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        det = f.add(det, f.mul(rows[0][j], determinant(minor, f)))
    return det


def test_parity_generator_over_gf2():
    gen = mds_generator(3, 2, GF2)
    assert row_set(gen) == {(1, 0), (0, 1), (1, 1)}


def test_square_generator_is_invertible():
    for n in (1, 2, 3, 4):
        f = FieldSpec(min_extension_degree(n))
        assert mat_rank(mds_generator(n, n, f)) == n


@pytest.mark.parametrize("n_out", range(2, 9))
def test_every_submatrix_invertible_exhaustive(n_out):
    f = FieldSpec(min_extension_degree(n_out))
    for k_in in range(1, n_out + 1):
        gen = mds_generator(n_out, k_in, f)
        for rows in combinations(gen.rows, k_in):
            assert determinant([list(r) for r in rows], f) != 0


def test_ten_minors_of_5x3_over_gf8():
    f = FieldSpec(3)
    gen = mds_generator(5, 3, f)
    minors = list(combinations(gen.rows, 3))
    assert len(minors) == 10
    for rows in minors:
        assert determinant([list(r) for r in rows], f) != 0


def test_generator_needs_large_enough_field():
    with pytest.raises(ConfigurationError) as err:
        mds_generator(6, 2, FieldSpec(2))
    assert "m >= 3" in str(err.value)
    assert min_extension_degree(6) == 3


def test_generator_deterministic():
    assert mds_generator(5, 3, FieldSpec(2)).rows == mds_generator(5, 3, FieldSpec(2)).rows
