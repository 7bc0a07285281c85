"""The exact integer kernel against plain Fraction arithmetic.

Reflection steps and graph preimages run on integers over a common
denominator (``ScaledPoint``); the references here are the textbook
Fraction formulas, evaluated row by row, and a fresh rational solve.
Containment is checked against the same row-by-row Fraction formulas.
Non-unit normals, fractional offsets and points with denominators exercise
the branch where <a,a> does not divide the step and the denominator grows.
Float data must keep its tolerance semantics, and exact objects reject
float points.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflekt.numeric import EXACT, FLOAT, BackendError, ScaledPoint, affine_solution_space, dot
from reflekt.numeric import vec_sub
from reflekt.polyhedra import AffineMap, HPolyhedron, graph_relation
from reflekt.reflections import ReflectionSpec, canonical_preimage, reflect_point

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
offsets = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def normals(n):
    return st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=n, max_size=n
    ).filter(any)


def points(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


def reference_reflect(a, beta, x):
    factor = 2 * (beta - dot(a, x)) / dot(a, a)
    return tuple(e + factor * c for e, c in zip(x, a))


def reference_preimage(a, beta, x):
    return tuple(x) if dot(a, x) <= beta else reference_reflect(a, beta, x)


@st.composite
def spec_and_point(draw):
    n = draw(st.integers(1, 5))
    return tuple(draw(normals(n))), draw(offsets), draw(points(n))


class TestReflectionStep:
    @given(spec_and_point())
    @example(((F(1), F(2), F(-3)), F(1, 2), (F(1), F(0), F(0))))
    @settings(max_examples=200, deadline=None)
    def test_step_matches_fraction_formulas(self, case):
        a, beta, x = case
        spec = ReflectionSpec(a, beta)
        want = reference_preimage(a, beta, x)
        assert reflect_point(spec, x) == reference_reflect(a, beta, x)
        assert canonical_preimage(spec, x) == want
        assert spec.in_domain(x) == (dot(a, x) <= beta)
        # the same step on a ScaledPoint, also one not in lowest terms
        p = ScaledPoint.of(x)
        for start in (p, ScaledPoint(tuple(3 * e for e in p.nums), 3 * p.den)):
            out = canonical_preimage(spec, start)
            assert isinstance(out, ScaledPoint)
            assert out.fractions() == want
            assert out.den % start.den == 0

    def test_denominator_grows_only_on_a_remainder(self):
        # (1, 2, -3) with beta 1/2 scales to (2, 4, -6) and beta 1, <a,a> = 56
        spec = ReflectionSpec((F(1), F(2), F(-3)), F(1, 2))
        assert spec.int_form() == (((0, 2), (1, 4), (2, -6)), 1, 56)
        out = canonical_preimage(spec, ScaledPoint((1, 0, 0), 1))
        # 2 * slack = -2 leaves remainder 54 mod 56: D grows by 56 / 2
        assert out == ScaledPoint((26, -4, 6), 28)
        # a transposition (<a,a> = 2) always divides 2 * slack
        swap = ReflectionSpec((F(1), F(-1)), F(0))
        assert canonical_preimage(swap, ScaledPoint((5, 2), 3)) == ScaledPoint((2, 5), 3)


@st.composite
def map_and_point(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.sampled_from((F(0), F(0), F(1), F(-2), F(1, 2), F(3, 4)))
    M = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    f = AffineMap.from_rows(M, draw(points(m)))
    # half the points are images, so both the solvable and the off-image
    # branch get exercised
    y = f.apply(draw(points(n))) if draw(st.booleans()) else draw(points(m))
    return f, y, draw(st.integers(1, 4))


class TestGraphPreimage:
    @given(map_and_point())
    @settings(max_examples=200, deadline=None)
    def test_factored_preimage_matches_a_fresh_solve(self, case):
        f, y, scale = case
        want, _ = affine_solution_space(f.M, vec_sub(y, f.t), EXACT)
        rel = graph_relation(f)
        assert rel.preimage(y) == want
        p = ScaledPoint.of(y)
        start = ScaledPoint(tuple(scale * e for e in p.nums), scale * p.den)
        out = rel.preimage(start)
        if want is None:
            assert out is None
        else:
            assert out.fractions() == want
            assert out.den % start.den == 0


@st.composite
def system_and_point(draw):
    n = draw(st.integers(1, 4))
    x = draw(points(n))
    slack = st.sampled_from((F(0), F(0), F(1, 3), F(-1, 2), F(5, 7)))

    def rows(count):
        out = []
        for _ in range(draw(st.integers(0, count))):
            row = tuple(draw(st.lists(rationals, min_size=n, max_size=n)))
            # a zero slack puts x exactly on the facet or equation
            out.append((row, dot(row, x) + draw(slack)))
        return out

    return n, rows(4), rows(2), x


class TestContains:
    @given(system_and_point())
    @settings(max_examples=200, deadline=None)
    def test_contains_matches_row_by_row_fractions(self, case):
        n, ineqs, eqs, x = case
        P = HPolyhedron.from_rows(n, ineqs, eqs)
        want = all(dot(r, x) <= b for r, b in ineqs) and all(dot(r, x) == d for r, d in eqs)
        assert P.contains(x) == want

    def test_float_backend_keeps_tolerance(self):
        P = HPolyhedron.from_rows(2, [((1.0, 0.0), 1.0)], [((0.0, 1.0), 2.0)], FLOAT)
        assert P.contains((1.0 + 1e-10, 2.0 - 1e-10))
        assert not P.contains((1.0 + 1e-6, 2.0))
        assert not P.contains((1.0, 2.0 + 1e-6))
        assert P.contains((1.0 + 1e-6, 2.0), tol=1e-5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: HPolyhedron.from_rows(2, [((F(1), F(0)), F(1))]).contains(x),
            lambda x: ReflectionSpec((F(1), F(0)), F(0)).in_domain(x),
            lambda x: reflect_point(ReflectionSpec((F(1), F(0)), F(0)), x),
            lambda x: canonical_preimage(ReflectionSpec((F(1), F(0)), F(0)), x),
        ],
        ids=["contains", "in_domain", "reflect_point", "canonical_preimage"],
    )
    def test_exact_object_rejects_float_point(self, call):
        call((F(1, 2), 5))  # rational and int coordinates are exact input
        with pytest.raises(BackendError, match="cannot enter the exact backend"):
            call((0.5, 5.0))

    def test_float_preimage_keeps_tolerance(self):
        spec = ReflectionSpec((1.0, 0.0), 0.0, FLOAT)
        # within tol of the mirror: kept as it is
        assert canonical_preimage(spec, (1e-10, 5.0)) == (1e-10, 5.0)
        assert canonical_preimage(spec, (1e-3, 5.0)) == (-1e-3, 5.0)
        assert canonical_preimage(spec, (1e-3, 5.0), tol=1e-2) == (1e-3, 5.0)
