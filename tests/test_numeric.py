import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflekt.numeric import (
    EXACT,
    FLOAT,
    BackendError,
    affine_solution_space,
    dot,
    kernel_dim,
    leq,
    mat_vec,
    orthogonal_complement_basis,
    rank,
    rref,
    to_scalar,
    vector,
)
from reflekt.reflections import ReflectionSpec, reflection_relation


class TestScalars:
    def test_exact_rejects_floats(self):
        with pytest.raises(BackendError):
            to_scalar(0.1, EXACT)

    def test_exact_accepts_strings_and_ints(self):
        assert to_scalar("2/3", EXACT) == F(2, 3)
        assert to_scalar(7, EXACT) == F(7)

    def test_float_coerces(self):
        assert to_scalar(F(1, 2), FLOAT) == 0.5
        assert to_scalar("1/4", FLOAT) == 0.25

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), "nan", "NaN", "inf", "-inf",
         "Infinity", "1e400", 10 ** 400],
        ids=lambda v: "10**400" if isinstance(v, int) else repr(v),
    )
    def test_float_rejects_non_finite(self, value):
        with pytest.raises(BackendError, match="not a finite float"):
            to_scalar(value, FLOAT)

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("value", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_a_backend_error(self, value, backend):
        with pytest.raises(BackendError, match="zero denominator"):
            to_scalar(value, backend)

    def test_lowest_terms_after_arithmetic(self):
        x = F(2, 4) + F(3, 6)
        assert (x.numerator, x.denominator) == (1, 1)
        y = F(1, 3) * F(3, 7)
        assert (y.numerator, y.denominator) == (1, 7)
        assert y.denominator > 0

    def test_float_leq_is_symmetric_tolerance(self):
        assert leq(1.0 + 5e-10, 1.0, tol=1e-9)
        assert not leq(1.0 + 5e-9, 1.0, tol=1e-9)


class TestRref:
    def test_rank_deficient(self):
        R, pivots = rref(((F(2), F(4)), (F(1), F(2))))
        assert R == ((F(1), F(2)), (F(0), F(0)))
        assert pivots == (0,)

    def test_identity(self):
        eye = ((F(1), F(0)), (F(0), F(1)))
        R, pivots = rref(eye)
        assert R == eye
        assert pivots == (0, 1)

    def test_permuted(self):
        R, pivots = rref(((F(0), F(1)), (F(1), F(0))))
        assert R == ((F(1), F(0)), (F(0), F(1)))
        assert pivots == (0, 1)

    def test_int_input_gives_fractions(self):
        R, pivots = rref(((2, 4, 1), (1, 3, 1)))
        assert R == ((F(1), F(0), F(-1, 2)), (F(0), F(1), F(1, 2)))
        assert pivots == (0, 1)
        assert all(type(e) is F for row in R for e in row)
        part, basis = affine_solution_space(((2, 4), (1, 3)), (1, 1), EXACT)
        assert part == (F(-1, 2), F(1, 2)) and basis == []
        assert all(type(e) is F for e in part)

    def test_float_input_keeps_floats(self):
        R, pivots = rref(((2.0, 4.0, 1.0), (1.0, 3.0, 1.0)))
        assert pivots == (0, 1)
        assert R == ((1.0, 0.0, -0.5), (0.0, 1.0, 0.5))
        assert all(type(e) is float for row in R for e in row)


def _reference_rref(M):
    """Dense Fraction Gauss-Jordan with first-nonzero pivoting."""
    rows = [[F(e) for e in r] for r in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), -1)
        if pivot_row < 0:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


_rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))


@st.composite
def _rational_matrices(draw):
    """Wide, tall and square matrices whose rows include zero rows,
    duplicates and multiples of earlier rows, with mostly zero entries."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), _rationals)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy"]))
        if kind == "zero":
            rows.append((F(0),) * n)
        elif kind == "copy" and rows:
            k = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
            rows.append(tuple(k * e for e in draw(st.sampled_from(rows))))
        else:
            rows.append(tuple(draw(entry) for _ in range(n)))
    return tuple(rows)


class TestRrefAgainstReference:
    @given(_rational_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_gauss_jordan(self, M):
        assert rref(M) == _reference_rref(M)

    @given(_rational_matrices(), st.lists(_rationals, min_size=7, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_augmented_systems(self, C, d):
        aug = tuple(row + (rhs,) for row, rhs in zip(C, d))
        R, pivots = rref(aug)
        assert (R, pivots) == _reference_rref(aug)
        part, basis = affine_solution_space(C, d[: len(C)], EXACT)
        if pivots and pivots[-1] == len(C[0]):
            assert part is None
        else:
            assert mat_vec(C, part) == tuple(d[: len(C)])
            assert all(mat_vec(C, v) == (F(0),) * len(C) for v in basis)

    def test_inconsistent_augmented_column(self):
        aug = ((F(1), F(1), F(2)), (F(2), F(2), F(5)), (F(0), F(0), F(0)))
        R, pivots = rref(aug)
        assert pivots == (0, 2)
        assert (R, pivots) == _reference_rref(aug)
        assert affine_solution_space(tuple(r[:2] for r in aug), (2, 5, 0), EXACT)[0] is None

    def test_int_and_fraction_input_agree(self):
        M = ((0, 3, 6, -3), (2, 0, 4, 1), (2, 3, 10, -2), (0, 0, 0, 0))
        assert rref(M) == rref(tuple(tuple(F(e) for e in r) for r in M))
        assert rref(M) == _reference_rref(M)


class TestKernelDim:
    def test_full_rank_identity(self):
        eye3 = tuple(vector(row, EXACT) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert kernel_dim(eye3) == 0

    def test_zero_matrix(self):
        assert kernel_dim(((F(0),) * 3, (F(0),) * 3)) == 3

    def test_rank_one_row(self):
        assert kernel_dim(((F(1), F(-1)),)) == 1

    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.integers(0, 10 ** 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m, n, seed):
        rng = random.Random(seed)
        M = tuple(
            tuple(F(rng.randint(-4, 4)) for _ in range(n)) for _ in range(m)
        )
        assert kernel_dim(M) + rank(M) == n
        assert len(affine_solution_space(M, (F(0),) * m, EXACT)[1]) == kernel_dim(M)


class TestComplementBasis:
    def test_axis_vector(self):
        assert orthogonal_complement_basis((F(1), F(0))) == ((F(0), F(1)),)

    def test_diagonal_vector(self):
        assert orthogonal_complement_basis((F(1), F(1))) == ((F(1), F(-1)),)

    def test_three_dim_rows(self):
        rows = orthogonal_complement_basis((F(1), F(2), F(3)))
        assert rows == ((F(2), F(-1), F(0)), (F(3), F(0), F(-1)))
        a = (F(1), F(2), F(3))
        for row in rows:
            assert dot(row, a) == 0
        assert rank(rows) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_complement_basis((F(0), F(0)))

    def test_random_rational_vectors(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 8)
            a = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            if all(e == 0 for e in a):
                a[0] = F(1)
            rows = orthogonal_complement_basis(tuple(a))
            assert len(rows) == n - 1
            assert all(dot(row, a) == 0 for row in rows)
            assert rank(rows) == n - 1
            # a spans the solution set of the row equations
            assert all(dot(row, a) == 0 for row in rows)
            basis = affine_solution_space(rows, (F(0),) * len(rows), EXACT)[1]
            assert len(basis) == 1

    @given(
        st.lists(st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=6)),
                 min_size=1, max_size=8).filter(any),
        st.fractions(-9, 9, max_denominator=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_relation_body_matches_the_dense_formulas(self, a, beta):
        a = tuple(a)
        assert orthogonal_complement_basis(a) == dense_complement(a)
        body = reflection_relation(ReflectionSpec(a, beta)).body
        want = dense_body(a, beta)
        assert (body.A, body.b, body.C, body.d) == want
        # equal values of another type would print differently
        assert all(type(e) is F for part in (body.A, body.C) for row in part for e in row)
        assert all(type(e) is F for e in body.b + body.d)


def dense_complement(a):
    """The complement rows as the dense formula writes them: a_j e_p - a_p e_j
    against the first nonzero p, negated when its first nonzero is negative."""
    p = next(i for i, e in enumerate(a) if e)
    rows = []
    for j in range(len(a)):
        if j != p:
            row = [F(0)] * len(a)
            row[p], row[j] = a[j], -a[p]
            if next(e for e in row if e) < 0:
                row = [-e for e in row]
            rows.append(tuple(row))
    return tuple(rows)


def dense_body(a, beta):
    """(A, b, C, d) of the reflection relation of (a, beta), written densely."""
    C = tuple(tuple(-e for e in row) + row for row in dense_complement(a))
    return (a + tuple(-e for e in a), a + a), (F(0), 2 * beta), C, (F(0),) * len(C)


class TestAffineSolve:
    def test_unique_solution(self):
        C = ((F(1), F(1)), (F(1), F(-1)))
        part, basis = affine_solution_space(C, (F(3), F(1)), EXACT)
        assert part == (F(2), F(1))
        assert basis == []

    def test_underdetermined(self):
        part, basis = affine_solution_space(((F(1), F(1)),), (F(2),), EXACT)
        assert part is not None
        assert len(basis) == 1
        assert dot((F(1), F(1)), part) == 2
        assert dot((F(1), F(1)), basis[0]) == 0

    def test_inconsistent(self):
        C = ((F(1), F(0)), (F(1), F(0)))
        part, basis = affine_solution_space(C, (F(0), F(1)), EXACT)
        assert part is None

    def test_float_mode(self):
        part, basis = affine_solution_space(((1.0, 1.0),), (2.0,), FLOAT)
        assert abs(dot((1.0, 1.0), part) - 2.0) < 1e-12
        assert len(basis) == 1


def test_mat_vec_checks_dims():
    from reflekt.numeric import DimensionError

    with pytest.raises(DimensionError):
        mat_vec(((F(1), F(2)),), (F(1),))


def test_dot_adds_floats_left_to_right():
    # sum() of floats is compensated since Python 3.12 and would give 1.0;
    # every recorded float report was computed left to right
    assert dot((1e16, 1.0, -1e16), (1.0, 1.0, 1.0)) == 0.0
    assert dot((F(10) ** 16, F(1), -F(10) ** 16), (F(1), F(1), F(1))) == 1
