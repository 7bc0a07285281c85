import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflekt import oracles
from reflekt.constructions import build_recipe
from reflekt.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPProblem,
    ProjectionChecker,
    feasible,
    in_hull,
    solve,
)
from reflekt.numeric import FLOAT, DimensionError, ScaledPoint, dot
from reflekt.oracles import permutation_orbit
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    VPolytope,
    _witness_blocks,
    compose_extension,
    graph_relation,
)


def box01(n):
    return HPolyhedron.box([0] * n, [1] * n)


class TestSolve:
    def test_max_over_unit_square(self):
        res = solve(LPProblem(box01(2), (F(1), F(1)), "max"))
        assert res.status == OPTIMAL
        assert res.value == 2
        assert res.point == (F(1), F(1))

    def test_unbounded(self):
        Q = HPolyhedron.from_rows(1, ineqs=[((-1,), 0)])
        assert solve(LPProblem(Q, (F(1),), "max")).status == UNBOUNDED

    def test_infeasible(self):
        Q = HPolyhedron.from_rows(1, ineqs=[((1,), -1), ((-1,), 0)])
        assert solve(LPProblem(Q, (F(0),), "max")).status == INFEASIBLE

    def test_min_sense(self):
        res = solve(LPProblem(box01(2), (F(1), F(3)), "min"))
        assert res.status == OPTIMAL
        assert res.value == 0
        assert res.point == (F(0), F(0))

    def test_equations_handled_natively(self):
        Q = HPolyhedron.from_rows(
            2,
            ineqs=[((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)],
            eqs=[((1, 1), 1)],
        )
        res = solve(LPProblem(Q, (F(2), F(1)), "max"))
        assert res.status == OPTIMAL
        assert res.value == 2
        assert res.point == (F(1), F(0))

    def test_free_variables(self):
        # min x st x >= -7 (negative optimum needs the split representation)
        Q = HPolyhedron.from_rows(1, ineqs=[((-1,), 7)])
        res = solve(LPProblem(Q, (F(1),), "min"))
        assert res.value == -7

    def test_optimal_point_is_feasible_and_consistent(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = []
            rhss = []
            for _ in range(rng.randint(1, 4)):
                rows.append(tuple(F(rng.randint(-4, 4)) for _ in range(n)))
                rhss.append(F(rng.randint(0, 8)))
            for j in range(n):
                e = [F(0)] * n
                e[j] = F(1)
                rows.append(tuple(e))
                rhss.append(F(6))
                e2 = [F(0)] * n
                e2[j] = F(-1)
                rows.append(tuple(e2))
                rhss.append(F(6))
            Q = HPolyhedron(n, tuple(rows), tuple(rhss))
            c = tuple(F(rng.randint(-9, 9)) for _ in range(n))
            res = solve(LPProblem(Q, c, "max"))
            assert res.status == OPTIMAL
            assert Q.contains(res.point)
            assert dot(c, res.point) == res.value

    def test_deterministic(self):
        Q = box01(3)
        c = (F(1), F(-2), F(1))
        r1 = solve(LPProblem(Q, c, "max"))
        r2 = solve(LPProblem(Q, c, "max"))
        assert (r1.value, r1.point) == (r2.value, r2.point)


class TestDualityAudit:
    def test_exact_certificates_on_random_lps(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 4)
            rows, rhss = [], []
            for _ in range(rng.randint(2, 5)):
                rows.append(tuple(F(rng.randint(-5, 5)) for _ in range(n)))
                rhss.append(F(rng.randint(0, 10)))
            for j in range(n):
                e = [F(0)] * n
                e[j] = F(1)
                rows.append(tuple(e))
                rhss.append(F(10))
                e2 = [F(0)] * n
                e2[j] = F(-1)
                rows.append(tuple(e2))
                rhss.append(F(10))
            Q = HPolyhedron(n, tuple(rows), tuple(rhss))
            c = tuple(F(rng.randint(-10, 10)) for _ in range(n))
            res = solve(LPProblem(Q, c, "max"), want_duals=True)
            assert res.status == OPTIMAL
            y = res.dual
            assert y is not None
            # dual feasibility, strong duality, complementary slackness: exact
            assert all(yi >= 0 for yi in y)
            for j in range(n):
                assert sum(y[i] * rows[i][j] for i in range(len(rows))) == c[j]
            assert sum(y[i] * rhss[i] for i in range(len(rows))) == res.value
            for i, yi in enumerate(y):
                if yi > 0:
                    assert dot(rows[i], res.point) == rhss[i]


class TestFeasible:
    def test_pin_inside(self):
        assert feasible(box01(2), [(0, F(1, 2))])

    def test_pin_outside(self):
        assert not feasible(box01(2), [(0, F(2))])

    def test_pin_index_range(self):
        with pytest.raises(IndexError):
            feasible(box01(2), [(5, F(0))])


class TestPinnedProjection:
    def test_permutation_vertex_via_pins(self):
        from reflekt.constructions import a_permutahedron_ef
        from reflekt.networks import batcher

        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        last_block = range(ef.Q.dim - 3, ef.Q.dim)
        target = (F(3), F(2), F(1))
        assert feasible(ef.Q, list(zip(last_block, target)))
        assert not feasible(ef.Q, list(zip(last_block, (F(1), F(1), F(4)))))


class TestInHull:
    def test_triangle_interior(self):
        V = VPolytope.from_points([(0, 0), (1, 0), (0, 1)])
        assert in_hull((F(1, 2), F(1, 2)), V)

    def test_triangle_outside(self):
        V = VPolytope.from_points([(0, 0), (1, 0), (0, 1)])
        assert not in_hull((F(1), F(1)), V)

    def test_permutahedron_centroid(self):
        orb = permutation_orbit((1, 2, 3))
        # mean of all six permutations of (1,2,3)
        centroid = (F(2), F(2), F(2))
        assert in_hull(centroid, orb.to_vpolytope())

    def test_vertices_always_inside(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(2, 4)
            pts = [
                tuple(F(rng.randint(-5, 5)) for _ in range(n))
                for _ in range(rng.randint(1, 6))
            ]
            V = VPolytope.from_points(pts)
            for v in V.vertices:
                assert in_hull(v, V)


class TestFloatBackend:
    def test_float_square(self):
        Q = HPolyhedron.box([0.0, 0.0], [1.0, 1.0], backend=FLOAT)
        res = solve(LPProblem(Q, (1.0, 1.0), "max"))
        assert res.status == OPTIMAL
        assert abs(res.value - 2.0) < 1e-9

    def test_float_infeasible(self):
        Q = HPolyhedron.from_rows(
            1, ineqs=[((1.0,), -1.0), ((-1.0,), 0.0)], backend=FLOAT
        )
        assert solve(LPProblem(Q, (0.0,), "max")).status == INFEASIBLE

    def test_float_unbounded(self):
        Q = HPolyhedron.from_rows(1, ineqs=[((-1.0,), 0.0)], backend=FLOAT)
        assert solve(LPProblem(Q, (1.0,), "max")).status == UNBOUNDED


def reference_projected(ef, c, sense):
    """Two-phase LP over the full Q with the objective c composed with the
    projection: an independent check of ProjectionChecker.maximize_projected."""
    objective = tuple(dot(c, col) for col in zip(*ef.projection.M))
    res = solve(LPProblem(ef.Q, objective, sense))
    if res.status != OPTIMAL:
        return res.status, None
    return OPTIMAL, res.value + dot(c, ef.projection.t)


def checkers(ef, seed_point=None):
    """An unseeded checker and, given a feasible raw point, a seeded one."""
    out = [ProjectionChecker(ef)]
    if seed_point is not None:
        seeded = ProjectionChecker(ef)
        assert seeded.seed_from_raw(seed_point)
        out.append(seeded)
    return out


def assert_matches_reference(ef, objectives, seed_point=None):
    for checker in checkers(ef, seed_point):
        for c in objectives:
            for sense in ("max", "min"):
                got = checker.maximize_projected(c, sense)
                assert got == reference_projected(ef, c, sense), (c, sense)


def identity_ef(P):
    return compose_extension(P, [])


class TestProjectedObjective:
    @pytest.mark.parametrize(
        "name, params, oracle, args",
        [
            ("a_permutahedron", {"n": 3}, "permutation_orbit", ((1, 2, 3),)),
            ("a_permutahedron", {"n": 4}, "permutation_orbit", ((1, 2, 3, 4),)),
            ("huffman_quadratic", {"n": 4}, "huffman_vectors", (4,)),
            ("parity", {"n": 5}, "parity_vertices", (5, "odd")),
        ],
    )
    def test_recipes_match_the_full_lp(self, name, params, oracle, args):
        ef = build_recipe(name, params)
        V = getattr(oracles, oracle)(*args)
        z = _witness_blocks(ef, V.points[0], 1e-9)
        seed_point = z.fractions() if isinstance(z, ScaledPoint) else z
        rng = random.Random(5)
        objectives = [
            tuple(F(rng.randint(-10, 10)) for _ in range(V.dim)) for _ in range(3)
        ]
        assert_matches_reference(ef, objectives, seed_point)
        # and the brute-force maxima agree with the tableau
        checker = ProjectionChecker(ef)
        for c in objectives:
            best = max(dot(c, v) for v in V.points)
            assert checker.maximize_projected(c) == (OPTIMAL, best)
        assert checker.pivots > 0

    def test_lineality_direction(self):
        # 0 <= 2x + 2y <= 3 in the plane: the direction (1, -1) is lineality,
        # and its column is nonzero in the free row of x after a pivot on 2
        P = HPolyhedron.from_rows(2, ineqs=[((2, 2), 3), ((-2, -2), 0)])
        ef = identity_ef(P)
        checker = ProjectionChecker(ef)
        assert checker.maximize_projected((F(1), F(0))) == (UNBOUNDED, None)
        assert checker.maximize_projected((F(2), F(-1)), "min") == (UNBOUNDED, None)
        assert checker.maximize_projected((F(3), F(3))) == (OPTIMAL, F(9, 2))
        assert checker.maximize_projected((F(3), F(3)), "min") == (OPTIMAL, F(0))
        objectives = [(F(1), F(0)), (F(2), F(-1)), (F(3), F(3)), (F(0), F(0))]
        assert_matches_reference(ef, objectives, (F(5), F(-5)))

    def test_infeasible_seed_is_not_trusted(self):
        # a raw point below the box: the tableau starts from a solved point
        P = HPolyhedron.box([0, 0], [2, 2])
        P = HPolyhedron(2, P.A + ((F(2), F(2)),), P.b + (F(1),))
        checker = ProjectionChecker(identity_ef(P))
        assert checker.seed_from_raw((F(0), F(-3)))
        assert checker.maximize_projected((F(2), F(0))) == (OPTIMAL, F(1))
        assert checker.maximize_projected((F(-2), F(1)), "min") == (OPTIMAL, F(-1))

    def test_free_coordinate_is_lineality(self):
        # y never appears in a constraint
        P = HPolyhedron.from_rows(2, ineqs=[((1, 0), F(1, 2)), ((-1, 0), 0)])
        ef = identity_ef(P)
        checker = ProjectionChecker(ef)
        assert checker.maximize_projected((F(0), F(1))) == (UNBOUNDED, None)
        assert checker.maximize_projected((F(4), F(0))) == (OPTIMAL, F(2))
        assert_matches_reference(ef, [(F(0), F(1)), (F(4), F(0))], (F(0), F(7)))

    def test_no_inequalities(self):
        # the line x = y = z - 1 in space: only equations
        P = HPolyhedron.from_rows(3, eqs=[((1, -1, 0), 0), ((0, 1, -1), -1)])
        ef = identity_ef(P)
        checker = ProjectionChecker(ef)
        assert checker.maximize_projected((F(1), F(1), F(-2))) == (OPTIMAL, F(-2))
        assert checker.maximize_projected((F(1), F(0), F(0))) == (UNBOUNDED, None)
        objectives = [(F(1), F(1), F(-2)), (F(1), F(0), F(0)), (F(0), F(2), F(-2))]
        assert_matches_reference(ef, objectives, (F(0), F(0), F(1)))
        point = identity_ef(HPolyhedron.point((F(1), F(2))))
        assert ProjectionChecker(point).maximize_projected((F(3), F(1))) == (OPTIMAL, F(5))
        assert_matches_reference(point, [(F(3), F(1))], (F(1), F(2)))

    def test_inconsistent_equations(self):
        P = HPolyhedron.from_rows(1, ineqs=[((1,), 2)], eqs=[((1,), 0), ((1,), 1)])
        ef = identity_ef(P)
        assert ProjectionChecker(ef).maximize_projected((F(1),)) == (INFEASIBLE, None)
        assert_matches_reference(ef, [(F(1),), (F(-1),)])

    def test_infeasible_inequalities(self):
        P = HPolyhedron.from_rows(2, ineqs=[((1, 1), -1), ((-1, 0), 0), ((0, -1), 0)])
        ef = identity_ef(P)
        assert ProjectionChecker(ef).maximize_projected((F(1), F(1))) == (INFEASIBLE, None)
        assert_matches_reference(ef, [(F(1), F(1)), (F(-1), F(2))])

    def test_bad_sense_and_wrong_length(self):
        ef = build_recipe("a_permutahedron", {"n": 3})
        checker = ProjectionChecker(ef)
        with pytest.raises(ValueError):
            checker.maximize_projected((F(1), F(2), F(3)), "maximize")
        with pytest.raises(DimensionError):
            checker.maximize_projected((F(1), F(2)))
        with pytest.raises(DimensionError):
            checker.maximize_projected((F(1), F(2), F(3), F(4)))
        assert checker.maximize_projected((F(1), F(2), F(3))) == (OPTIMAL, F(14))

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 3),
        data=st.data(),
    )
    def test_random_formulations_match_the_full_lp(self, dim, data):
        coeff = st.integers(-3, 3)
        rhs = st.fractions(min_value=-3, max_value=5, max_denominator=3)
        row = st.tuples(*[coeff] * dim)
        ineqs = data.draw(st.lists(st.tuples(row, rhs), max_size=5))
        eqs = data.draw(st.lists(st.tuples(row, rhs), max_size=2))
        out = data.draw(st.integers(1, 2))
        M = data.draw(st.lists(row, min_size=out, max_size=out))
        t = data.draw(st.lists(rhs, min_size=out, max_size=out))
        P = HPolyhedron.from_rows(dim, ineqs, eqs)
        ef = compose_extension(P, [graph_relation(AffineMap.from_rows(M, t))])
        objectives = data.draw(st.lists(st.tuples(*[coeff] * out), min_size=1, max_size=3))
        objectives = [tuple(F(e) for e in c) for c in objectives]
        start = solve(LPProblem(ef.Q, (F(0),) * ef.Q.dim))
        seed_point = start.point if start.status == OPTIMAL else None
        assert_matches_reference(ef, objectives, seed_point)
