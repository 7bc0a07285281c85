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
    LPNumericError,
    LPResult,
    ProjectionChecker,
    _float_optima,
    _FloatCore,
    _stage,
    in_hull,
    solve_system,
)
from reflekt.numeric import (
    DEFAULT_TOL,
    FLOAT,
    BackendError,
    EXACT,
    DimensionError,
    affine_solution_space,
    dot,
    int_scale,
    to_scalar,
    unit_vector,
    vec_sub,
)
from reflekt.oracles import VertexSet, permutation_orbit
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    _witness_blocks,
    compose_extension,
    graph_relation,
)
from test_direct_system import _read, _walk


def box01(n):
    return HPolyhedron.box([0] * n, [1] * n)


def solve(Q, c):
    """max <c, x> over the polyhedron Q."""
    return solve_system(Q.dim, list(zip(Q.A, Q.b)), list(zip(Q.C, Q.d)), c, backend=Q.backend)


def neg(c):
    return tuple(-e for e in c)


class TestSolve:
    def test_max_over_unit_square(self):
        res = solve(box01(2), (F(1), F(1)))
        assert res.status == OPTIMAL
        assert res.value == 2
        assert res.point == (F(1), F(1))

    def test_unbounded(self):
        Q = HPolyhedron.from_rows(1, ineqs=[((-1,), 0)])
        assert solve(Q, (F(1),)).status == UNBOUNDED

    def test_infeasible(self):
        Q = HPolyhedron.from_rows(1, ineqs=[((1,), -1), ((-1,), 0)])
        assert solve(Q, (F(0),)).status == INFEASIBLE

    def test_min_sense(self):
        # min <c, x> is -max <-c, x>
        res = solve(box01(2), neg((F(1), F(3))))
        assert res.status == OPTIMAL
        assert -res.value == 0
        assert res.point == (F(0), F(0))

    def test_equations_handled_natively(self):
        Q = HPolyhedron.from_rows(
            2,
            ineqs=[((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)],
            eqs=[((1, 1), 1)],
        )
        res = solve(Q, (F(2), F(1)))
        assert res.status == OPTIMAL
        assert res.value == 2
        assert res.point == (F(1), F(0))

    def test_free_variables(self):
        # min x st x >= -7 (negative optimum needs the split representation)
        Q = HPolyhedron.from_rows(1, ineqs=[((-1,), 7)])
        res = solve(Q, neg((F(1),)))
        assert -res.value == -7

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
            res = solve(Q, c)
            assert res.status == OPTIMAL
            assert Q.contains(res.point)
            assert dot(c, res.point) == res.value

    def test_deterministic(self):
        Q = box01(3)
        c = (F(1), F(-2), F(1))
        r1 = solve(Q, c)
        r2 = solve(Q, c)
        assert (r1.value, r1.point) == (r2.value, r2.point)


def pinned_feasible(Q, pins):
    """Feasibility of Q with coordinates pinned by (index, value) pairs: a
    zero objective, decided in phase 1."""
    eqs = list(zip(Q.C, Q.d)) + [(unit_vector(i, Q.dim, Q.backend), v) for i, v in pins]
    res = solve_system(Q.dim, list(zip(Q.A, Q.b)), eqs, (F(0),) * Q.dim, backend=Q.backend)
    return res.status == OPTIMAL


class TestFeasible:
    def test_pin_inside(self):
        assert pinned_feasible(box01(2), [(0, F(1, 2))])

    def test_pin_outside(self):
        assert not pinned_feasible(box01(2), [(0, F(2))])


class TestPinnedProjection:
    def test_permutation_vertex_via_pins(self):
        from reflekt.constructions import a_permutahedron_ef
        from reflekt.networks import batcher

        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        last_block = range(ef.Q.dim - 3, ef.Q.dim)
        target = (F(3), F(2), F(1))
        assert pinned_feasible(ef.Q, list(zip(last_block, target)))
        assert not pinned_feasible(ef.Q, list(zip(last_block, (F(1), F(1), F(4)))))


class TestInHull:
    def test_triangle_interior(self):
        V = VertexSet(2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))), "triangle")
        assert in_hull((F(1, 2), F(1, 2)), V)

    def test_triangle_outside(self):
        V = VertexSet(2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))), "triangle")
        assert not in_hull((F(1), F(1)), V)

    def test_empty_set_and_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            in_hull((F(0), F(0)), VertexSet(2, (), "empty"))
        V = VertexSet(2, ((F(0), F(0)), (F(1), F(0))), "segment")
        for y in [(F(0),), (F(0), F(0), F(0))]:
            with pytest.raises(ValueError):
                in_hull(y, V)
        with pytest.raises(ValueError):
            in_hull((F(0), F(0)), VertexSet(2, ((F(0), F(0)), (F(1),)), "ragged"))

    def test_permutahedron_centroid(self):
        orb = permutation_orbit((1, 2, 3))
        # mean of all six permutations of (1,2,3)
        centroid = (F(2), F(2), F(2))
        assert in_hull(centroid, orb)

    def test_vertices_always_inside(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(2, 4)
            pts = [
                tuple(F(rng.randint(-5, 5)) for _ in range(n))
                for _ in range(rng.randint(1, 6))
            ]
            V = VertexSet(n, tuple(pts), "random")
            for v in V.points:
                assert in_hull(v, V)


class TestFloatBackend:
    def test_float_square(self):
        Q = HPolyhedron.box([0.0, 0.0], [1.0, 1.0], backend=FLOAT)
        res = solve(Q, (1.0, 1.0))
        assert res.status == OPTIMAL
        assert abs(res.value - 2.0) < 1e-9

    def test_float_infeasible(self):
        Q = HPolyhedron.from_rows(
            1, ineqs=[((1.0,), -1.0), ((-1.0,), 0.0)], backend=FLOAT
        )
        assert solve(Q, (0.0,)).status == INFEASIBLE

    def test_float_unbounded(self):
        Q = HPolyhedron.from_rows(1, ineqs=[((-1.0,), 0.0)], backend=FLOAT)
        assert solve(Q, (1.0,)).status == UNBOUNDED


def reference_projected(ef, c):
    """Two-phase LP over the full Q with the objective c composed with the
    projection: an independent check of ProjectionChecker.maximize_projected."""
    objective = tuple(dot(c, col) for col in zip(*ef.projection.M))
    res = solve(ef.Q, objective)
    if res.status != OPTIMAL:
        return res.status, None
    return OPTIMAL, res.value + dot(c, ef.projection.t)


def checkers(ef, seed_point=None):
    """An unseeded checker and, given a feasible raw point, one seeded with
    the reduced point it stands for."""
    out = [ProjectionChecker(ef)]
    if seed_point is not None:
        seeded = ProjectionChecker(ef)
        assert seeded.seed_from_raw(_read(ef, seed_point))
        out.append(seeded)
    return out


def assert_matches_reference(ef, objectives, seed_point=None):
    for checker in checkers(ef, seed_point):
        for c in objectives:
            for obj in (c, neg(c)):
                assert checker.maximize_projected(obj) == reference_projected(ef, obj), obj


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
        seed_point = _walk(ef, V.points[0]).fractions()
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
        assert checker.maximize_projected((F(3), F(3))) == (OPTIMAL, F(9, 2))
        pivots = checker.pivots
        # a lineality slot or its negated copy enters first and is unblocked
        assert checker.maximize_projected((F(1), F(0))) == (UNBOUNDED, None)
        assert checker.maximize_projected(neg((F(2), F(-1)))) == (UNBOUNDED, None)
        assert checker.pivots == pivots
        assert checker.maximize_projected(neg((F(3), F(3)))) == (OPTIMAL, -F(0))
        objectives = [(F(1), F(0)), (F(2), F(-1)), (F(3), F(3)), (F(0), F(0))]
        assert_matches_reference(ef, objectives, (F(5), F(-5)))

    def test_infeasible_seed_is_not_trusted(self):
        # a raw point below the box: the tableau starts from a solved point
        P = HPolyhedron.box([0, 0], [2, 2])
        P = HPolyhedron(2, P.A + ((F(2), F(2)),), P.b + (F(1),))
        checker = ProjectionChecker(identity_ef(P))
        assert checker.seed_from_raw((F(0), F(-3)))
        assert checker.maximize_projected((F(2), F(0))) == (OPTIMAL, F(1))
        assert checker.maximize_projected(neg((F(-2), F(1)))) == (OPTIMAL, -F(-1))

    def test_free_coordinate_is_lineality(self):
        # y never appears in a constraint
        P = HPolyhedron.from_rows(2, ineqs=[((1, 0), F(1, 2)), ((-1, 0), 0)])
        ef = identity_ef(P)
        checker = ProjectionChecker(ef)
        assert checker.maximize_projected((F(4), F(0))) == (OPTIMAL, F(2))
        pivots = checker.pivots
        assert checker.maximize_projected((F(0), F(1))) == (UNBOUNDED, None)
        assert checker.maximize_projected(neg((F(0), F(-1)))) == (UNBOUNDED, None)
        assert checker.pivots == pivots
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

    def test_wrong_length(self):
        ef = build_recipe("a_permutahedron", {"n": 3})
        checker = ProjectionChecker(ef)
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
        start = solve(ef.Q, (F(0),) * ef.Q.dim)
        seed_point = start.point if start.status == OPTIMAL else None
        assert_matches_reference(ef, objectives, seed_point)


def reference_feasible(checker, y):
    """One two-phase exact solve of the checker's integer rows, A w <= b
    and M w = F y - t, with a zero objective: an independent check of
    ProjectionChecker.feasible."""
    if not checker.consistent:
        return False
    rows, _, M, scale = checker.int_rows()

    def dense(pairs):
        row = [0] * checker.n_free
        for j, c in pairs:
            row[j] = c
        return row

    res = solve_system(
        checker.n_free,
        [(dense(pairs), rhs) for pairs, rhs, _ in rows],
        [(dense(pairs), scale * yi - t) for (pairs, t), yi in zip(M, y)],
        (F(0),) * checker.n_free,
    )
    return res.status == OPTIMAL


def assert_membership_matches(ef, points):
    checker = ProjectionChecker(ef)
    for y in points:
        assert checker.feasible(y) == reference_feasible(checker, y), y


def graph_ef(dim, ineqs, eqs, M, t):
    P = HPolyhedron.from_rows(dim, ineqs, eqs)
    return compose_extension(P, [graph_relation(AffineMap.from_rows(M, t))])


class TestExactMembership:
    """ProjectionChecker.feasible runs phase 1 on the factored tableau."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_random_formulations_match_a_fresh_solve(self, dim, data):
        coeff = st.integers(-3, 3)
        rhs = st.fractions(min_value=-3, max_value=5, max_denominator=3)
        row = st.tuples(*[coeff] * dim)
        ineqs = data.draw(st.lists(st.tuples(row, rhs), max_size=5))
        eqs = data.draw(st.lists(st.tuples(row, rhs), max_size=2))
        out = data.draw(st.integers(1, 3))
        M = data.draw(st.lists(row, min_size=out, max_size=out))
        t = data.draw(st.lists(rhs, min_size=out, max_size=out))
        ef = graph_ef(dim, ineqs, eqs, M, t)
        # rational points with denominators 2 and 3, and projections of
        # vertices of Q (points on facets), each also nudged off by 1/2
        coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        points = data.draw(st.lists(st.tuples(*[coord] * out), max_size=4))
        for c in data.draw(st.lists(st.tuples(*[coeff] * ef.Q.dim), max_size=3)):
            res = solve(ef.Q, tuple(F(e) for e in c))
            if res.status == OPTIMAL:
                y = ef.projection.apply(res.point)
                points += [y, y[:-1] + (y[-1] + F(1, 2),)]
        assert_membership_matches(ef, points)

    def test_lineality_direction(self):
        # 0 <= 2x + 2y <= 3: (1, -1) is lineality, so only x + y is bounded
        ef = graph_ef(2, [((2, 2), 3), ((-2, -2), 0)], [], [(1, 0), (1, 1)], [0, 0])
        checker = ProjectionChecker(ef)
        assert checker.feasible((F(100), F(3, 2)))
        assert checker.feasible((F(-7, 3), F(0)))
        assert not checker.feasible((F(0), F(2)))
        with pytest.raises(DimensionError):
            checker.feasible((F(0), F(0), F(0)))
        assert_membership_matches(ef, [(F(5), F(1, 2)), (F(0), F(-1, 3)), (F(1), F(3, 2))])

    def test_rank_deficient_projection(self):
        # the two outputs are x + y and 2x + 2y over the unit square
        ef = graph_ef(2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], [],
                      [(1, 1), (2, 2)], [0, 1])
        checker = ProjectionChecker(ef)
        assert checker.feasible((F(3, 2), F(4)))
        assert checker.feasible((F(0), F(1)))
        assert not checker.feasible((F(1), F(1)))
        assert not checker.feasible((F(5, 2), F(6)))
        assert_membership_matches(ef, [(F(1, 3), F(5, 3)), (F(2), F(5)), (F(2), F(4))])

    def test_empty_and_inconsistent_formulations_answer_false(self):
        empty = graph_ef(2, [((1, 1), -1), ((-1, 0), 0), ((0, -1), 0)], [], [(1, 0)], [0])
        inconsistent = graph_ef(1, [((1,), 2)], [((1,), 0), ((1,), 1)], [(1,)], [0])
        for ef in (empty, inconsistent):
            assert not ProjectionChecker(ef).feasible((F(0),))
        # an inconsistent checker answers before it reads y
        assert ProjectionChecker(inconsistent).inconsistency is not None
        assert not ProjectionChecker(inconsistent).feasible((F(0), F(0)))
        with pytest.raises(DimensionError):
            ProjectionChecker(empty).feasible((F(0), F(0)))
        assert_membership_matches(empty, [(F(0),), (F(-1),)])

    def test_permutahedron_from_json(self):
        # no provenance: every vertex check takes this path, as `reflekt
        # verify --ef` does
        from reflekt import serialize
        from reflekt.verify import verify_projection_equality

        fresh = build_recipe("a_permutahedron", {"n": 5})
        ef = serialize.ef_from_dict(serialize.ef_to_dict(fresh))
        V = permutation_orbit((1, 2, 3, 4, 5))
        report = verify_projection_equality(ef, V, 50, seed=7)
        assert report.passed and report.vertex_passed == 120
        assert report.lp_fallbacks == 120 and report.witness_hits == 0
        assert report.lp_pivots == 436  # the factoring and the 50 objectives
        checker = ef._checker
        assert not checker.feasible((3, 3, 3, 3, F(31, 10)))
        assert checker.feasible((3, 3, 3, 3, 3))
        centre = (F(5, 2), F(5, 2), F(7, 2), F(7, 2), 3)
        assert checker.feasible(centre) == reference_feasible(checker, centre)


def reference_stage(n_vars, ineqs, eqs, objective, nonneg, exact):
    """The dense two-phase tableau the full-width references pivot on, staged
    apart from :func:`reflekt.lp._stage`.  Returns ``(rows, basis,
    art_of_row, nv, scale)``: the rows [split variables | slacks |
    artificials | rhs], each flipped to a nonnegative rhs (and scaled to
    integers on the exact backend), then the phase-1 row and the cost row;
    the starting basis; the artificial column of each row that needs one;
    the split variable count; and the cost row's scale."""
    backend = EXACT if exact else FLOAT

    def split(coeffs):
        out = [to_scalar(c, backend) for c in coeffs]
        return out if nonneg else out + [-c for c in out]

    staged = []  # (row over the split variables + rhs, slack sign or 0)
    for kind, system in ((1, ineqs), (0, eqs)):
        for coeffs, rhs in system:
            row, sign = split(coeffs) + [to_scalar(rhs, backend)], kind
            if exact:
                row = int_scale(row)[0]
            if row[-1] < 0:
                row, sign = [-e for e in row], -sign
            staged.append((row, sign))

    nv = n_vars if nonneg else 2 * n_vars
    n_slack = len(ineqs)
    n_art = sum(1 for _, sign in staged if sign != 1)
    ncols = nv + n_slack + n_art
    num = int if exact else float
    zero = num(0)
    rows, basis, art_of_row = [], [], {}
    for i, (row, sign) in enumerate(staged):
        full = row[:-1] + [zero] * (n_slack + n_art) + row[-1:]
        if sign != 0:
            full[nv + i] = num(sign)  # rows are ordered inequalities-first
        if sign != 1:  # flipped inequality or equation needs an artificial
            art_of_row[i] = nv + n_slack + len(art_of_row)
            full[art_of_row[i]] = num(1)
            basis.append(art_of_row[i])
        else:
            basis.append(nv + i)
        rows.append(full)

    p1 = [zero] * (ncols + 1)
    for i in art_of_row:
        for j in range(ncols + 1):
            p1[j] += rows[i][j]
    for col in art_of_row.values():
        p1[col] -= num(1)
    cost, scale = int_scale(split(objective)) if exact else (split(objective), 1)
    rows += [p1, cost + [zero] * (ncols + 1 - len(cost))]
    return rows, basis, art_of_row, nv, scale


def assert_stages_the_reference_columns(n_vars, ineqs, eqs, objectives, nonneg, exact):
    """``_stage`` writes the reference tableau's nonbasic columns and rhs,
    bit for bit (repr tells -0.0 from 0.0 and an int from a Fraction),
    with the same labels and cost scales."""
    rows, basis, cols, scales, n_struct = _stage(n_vars, ineqs, eqs, objectives, nonneg, exact)
    assert all(len(row) == len(cols) + 1 for row in rows)
    m = len(basis)
    assert len(rows) == m + 1 + len(objectives) and len(scales) == len(objectives)
    for k, c in enumerate(objectives):
        ref, ref_basis, _, nv, scale = reference_stage(n_vars, ineqs, eqs, c, nonneg, exact)
        basic = set(ref_basis)
        ref_cols = [j for j in range(len(ref[0]) - 1) if j not in basic]
        cut = [[row[j] for j in ref_cols] + row[-1:] for row in ref]
        assert repr(rows[: m + 1] + [rows[m + 1 + k]]) == repr(cut), c
        assert (basis, cols, scales[k], n_struct) == (ref_basis, ref_cols, scale, nv + len(ineqs))


def full_width_float_solve(n_vars, ineqs, eqs, objective, nonneg):
    """The float two-phase solve on a dense tableau that stores and updates
    every basic column, with the cost row carried through phase 1: the bit
    reference for the condensed float dictionary and its pivot tree."""
    rows, basis, art_of_row, nv, _ = reference_stage(n_vars, ineqs, eqs, objective, nonneg, False)
    m = len(basis)

    def pivot(r, c):
        lead = rows[r]
        rows[r] = lead = [e / lead[c] for e in lead]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and abs(f) > 0.0:
                rows[i] = [a - f * b for a, b in zip(row, lead)]
        basis[r] = c

    def run_phase(obj_idx, allowed):
        for _ in range(20_000):
            # the first largest reduced cost, so ties go to the smallest column
            col = max(allowed, key=rows[obj_idx].__getitem__, default=-1)
            if col < 0 or not rows[obj_idx][col] > DEFAULT_TOL:
                return True
            r, best_ratio = -1, None
            for i in range(m):
                a = rows[i][col]
                if a > DEFAULT_TOL:
                    ratio = rows[i][-1] / a
                    if best_ratio is None or ratio < best_ratio - DEFAULT_TOL:
                        r, best_ratio = i, ratio
            if r < 0:
                return False
            pivot(r, col)
        raise LPNumericError("float simplex failed to converge")

    if art_of_row:
        feas_eps = DEFAULT_TOL * (10.0 + sum(rows[i][-1] for i in range(m)))
        run_phase(m, range(len(rows[0]) - 1))
        if rows[m][-1] > feas_eps:
            return LPResult(INFEASIBLE)
    if not run_phase(m + 1, range(nv + len(ineqs))):
        return LPResult(UNBOUNDED)
    vals = {j: row[-1] for j, row in zip(basis, rows)}
    if nonneg:
        x = tuple(vals.get(j, 0.0) for j in range(n_vars))
    else:
        x = tuple(vals.get(j, 0.0) - vals.get(n_vars + j, 0.0) for j in range(n_vars))
    return LPResult(OPTIMAL, -rows[m + 1][-1], x)


# small integers make equal reduced costs likely after pivots, too
FLOAT_COEFF = (st.floats(-3, 3, allow_nan=False).map(lambda e: round(e, 2))
               | st.integers(-2, 2).map(float))


def float_system(data, dim):
    """A drawn float LP: ``(ineqs, eqs, nonneg)``, with equations, nonnegative
    variables and, on some draws, a contradictory pair of rows that leaves
    phase 1 infeasible; flipped rows bring artificials."""
    row = st.tuples(*[FLOAT_COEFF] * dim)
    ineqs = data.draw(st.lists(st.tuples(row, st.floats(-3, 5).map(lambda e: round(e, 3))),
                               max_size=6))
    eqs = data.draw(st.lists(st.tuples(row, st.floats(-3, 3).map(lambda e: round(e, 2))),
                             max_size=2))
    if data.draw(st.booleans()):
        a = data.draw(row)
        ineqs += [(a, -1.0), (neg(a), -1.0)]  # <a, x> <= -1 and >= 1
    return ineqs, eqs, data.draw(st.booleans())


def float_objective(data, dim):
    """A drawn objective, on some draws with a forced pricing tie: two equal
    largest coefficients, of which the smaller label must enter."""
    c = list(data.draw(st.tuples(*[FLOAT_COEFF] * dim)))
    if dim > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        c[i] = c[j] = max(map(abs, c)) or 1.0
    return tuple(c)


def fresh_projected(checker, c):
    """One two-phase float solve of the checker's staged data per objective."""
    obj = tuple(dot(c, col) for col in zip(*checker.M_red))
    const = dot(c, checker.t_red)
    seeded = checker.w_feas is not None
    b = checker.b_shift if seeded else checker.b_red
    res = solve_system(checker.n_free, list(zip(checker.A_red, b)), (), obj, backend=FLOAT)
    if res.status != OPTIMAL:
        return res.status, None
    if seeded:
        return OPTIMAL, res.value + dot(obj, checker.w_feas) + const
    return OPTIMAL, res.value + const


class TestFloatSharedPhase1:
    """Float objectives share one phase 1 and keep every bit."""

    def test_mgon_objectives_match_fresh_solves(self):
        from reflekt.constructions import mgon_ef
        from reflekt.oracles import mgon_orbit
        from reflekt.verify import random_objectives

        for m in range(3, 65):
            ef = mgon_ef(m)
            checker = ProjectionChecker(ef)
            z = _witness_blocks(ef, mgon_orbit(m).points[0], 1e-6)
            assert checker.seed_from_raw(z)
            for c in random_objectives(2, 25, random.Random(m), FLOAT):
                for obj in (c, neg(c)):
                    got = checker.maximize_projected(obj)
                    assert repr(got) == repr(fresh_projected(checker, obj))

    def test_seed_registered_after_unseeded_calls(self):
        from reflekt.constructions import mgon_ef
        from reflekt.oracles import mgon_orbit

        rng = random.Random(3)
        for m in (5, 7, 12, 31, 64):
            ef = mgon_ef(m)
            checker = ProjectionChecker(ef)
            objectives = [(float(rng.randint(-10, 10)), float(rng.randint(-10, 10)))
                          for _ in range(6)]
            for k, c in enumerate(objectives):
                if k == 3:
                    z = _witness_blocks(ef, mgon_orbit(m).points[1], 1e-6)
                    assert checker.seed_from_raw(z)
                for obj in (c, neg(c)):
                    got = checker.maximize_projected(obj)
                    assert repr(got) == repr(fresh_projected(checker, obj))

    def test_unbounded_and_infeasible(self):
        unbounded = identity_ef(HPolyhedron.from_rows(
            2, ineqs=[((-1.0, 0.0), 0.5), ((0.0, 1.0), 2.0)], backend=FLOAT))
        empty = identity_ef(HPolyhedron.from_rows(
            2, ineqs=[((1.0, 1.0), -1.0), ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)],
            backend=FLOAT))
        objectives = [(1.0, 0.0), (0.0, 1.0), (-1.0, 2.5), (0.0, 0.0)]
        for ef in (unbounded, empty):
            checker = ProjectionChecker(ef)
            for c in objectives:
                for obj in (c, neg(c)):
                    got = checker.maximize_projected(obj)
                    assert repr(got) == repr(fresh_projected(checker, obj))
        assert ProjectionChecker(unbounded).maximize_projected((1.0, 0.0)) == (UNBOUNDED, None)
        assert ProjectionChecker(unbounded).maximize_projected((-1.0, 1.0)) == (OPTIMAL, 2.5)
        assert ProjectionChecker(empty).maximize_projected((1.0, 0.0)) == (INFEASIBLE, None)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_replayed_pivots_match_a_carried_objective_row(self, dim, data):
        ineqs, eqs, nonneg = float_system(data, dim)
        objective = float_objective(data, dim)
        for obj in (objective, neg(objective)):
            got = solve_system(dim, ineqs, eqs, obj, backend=FLOAT, nonneg=nonneg)
            assert repr(got) == repr(full_width_float_solve(dim, ineqs, eqs, obj, nonneg))

    def test_a_pricing_tie_enters_the_smaller_label(self):
        # after the first pivot the tied labels sit in slots out of label
        # order; entering the earlier slot ends at (0, 0, 4.000000000000001)
        ineqs = [((1.0, -1.0, -2.0), 0.0), ((2.0, 1.0, 1.0), 4.0)]
        want = full_width_float_solve(3, ineqs, (), (2.0, 2.0, 2.0), True)
        point = (0.0, 4.000000000000002, 0.0)
        assert repr(want) == repr(LPResult(OPTIMAL, 8.000000000000005, point))
        assert repr(solve_system(3, ineqs, (), (2.0, 2.0, 2.0), FLOAT, nonneg=True)) == repr(want)
        core = _FloatCore([[1.0, 1.0, 3.0], [2.0, 2.0, 0.0]], [0], [2, 1])
        core.run_phase(1)
        assert (core.basis, core.cols) == ([1], [2, 0])


def mgon_checkers(m):
    """An unseeded and a seeded float checker of the m-gon formulation."""
    from reflekt.constructions import mgon_ef
    from reflekt.oracles import mgon_orbit

    ef = mgon_ef(m)
    seeded = ProjectionChecker(ef)
    assert seeded.seed_from_raw(_witness_blocks(ef, mgon_orbit(m).points[0], 1e-6))
    return ProjectionChecker(ef), seeded


class TestFloatPivotTree:
    """Float objectives are solved as one pivot tree and keep every bit of
    their own phase 2."""

    def test_mgon_batches_match_per_call_and_fresh_solves(self):
        from reflekt.verify import random_objectives

        for m in range(3, 65):
            objectives = random_objectives(2, 25, random.Random(m), FLOAT)
            unseeded, seeded = mgon_checkers(m)
            for objs in (objectives, list(map(neg, objectives))):
                for checker in (unseeded, seeded):
                    got = checker.maximize_projected_all(objs)
                    per_call = [checker.maximize_projected(c) for c in objs]
                    assert repr(got) == repr(per_call), (m, objs is objectives, checker is seeded)
                # TestFloatSharedPhase1 compares the seeded calls with fresh solves
                fresh = [fresh_projected(unseeded, c) for c in objs]
                assert repr(unseeded.maximize_projected_all(objs)) == repr(fresh)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_tree_matches_carried_objective_rows(self, dim, data):
        ineqs, eqs, nonneg = float_system(data, dim)
        objectives = [float_objective(data, dim)]
        for kind in data.draw(st.lists(st.sampled_from(("new", "zero", "repeat", "negate")),
                                       max_size=7)):
            if kind == "new":
                objectives.append(float_objective(data, dim))
            elif kind == "zero":
                objectives.append((0.0,) * dim)
            else:
                c = data.draw(st.sampled_from(objectives))
                objectives.append(c if kind == "repeat" else tuple(-e for e in c))
        for objs in (objectives, list(map(neg, objectives))):
            want = [full_width_float_solve(dim, ineqs, eqs, c, nonneg) for c in objs]
            got = _float_optima(dim, ineqs, eqs, objs, nonneg)
            if got is None:
                assert want == [LPResult(INFEASIBLE)] * len(objs)
                continue
            assert repr(got) == repr(want), objs
            # a one-objective tree is one path, as in solve_system
            single = [solve_system(dim, ineqs, eqs, c, FLOAT, nonneg) for c in objs]
            assert repr(got) == repr(single), objs

    def test_unbounded_and_infeasible_batches(self):
        unbounded = identity_ef(HPolyhedron.from_rows(
            2, ineqs=[((-1.0, 0.0), 0.5), ((0.0, 1.0), 2.0)], backend=FLOAT))
        empty = identity_ef(HPolyhedron.from_rows(
            2, ineqs=[((1.0, 1.0), -1.0), ((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0)],
            backend=FLOAT))
        objectives = [(1.0, 0.0), (0.0, 1.0), (-1.0, 2.5), (0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)]
        for ef in (unbounded, empty):
            checker = ProjectionChecker(ef)
            for objs in (objectives, list(map(neg, objectives))):
                got = checker.maximize_projected_all(objs)
                assert repr(got) == repr([checker.maximize_projected(c) for c in objs])
        assert ProjectionChecker(unbounded).maximize_projected_all(objectives[:3]) == [
            (UNBOUNDED, None), (OPTIMAL, 2.0), (OPTIMAL, 5.5)]
        assert ProjectionChecker(empty).maximize_projected_all(objectives[:2]) == [
            (INFEASIBLE, None)] * 2

    def test_exact_batches_loop_over_single_objectives(self):
        for recipe, params, dim in (("a_permutahedron", {"n": 4}, 4),
                                    ("huffman_quadratic", {"n": 4}, 4)):
            rng = random.Random(5)
            objectives = [tuple(F(rng.randint(-10, 10)) for _ in range(dim)) for _ in range(12)]
            for objs in (objectives, list(map(neg, objectives))):
                batch = ProjectionChecker(build_recipe(recipe, params))
                single = ProjectionChecker(build_recipe(recipe, params))
                got = batch.maximize_projected_all(objs)
                assert got == [single.maximize_projected(c) for c in objs]
                assert batch.pivots == single.pivots > 0

    def test_empty_lists_and_bad_objectives(self):
        exact = ProjectionChecker(build_recipe("a_permutahedron", {"n": 3}))
        floats = mgon_checkers(5)
        inconsistent = ProjectionChecker(graph_ef(1, [((1,), 2)], [((1,), 0), ((1,), 1)],
                                                  [(1,)], [0]))
        for checker in (exact, *floats, inconsistent):
            assert checker.maximize_projected_all([]) == []
        good = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
        with pytest.raises(DimensionError):
            exact.maximize_projected_all(good + [(F(1), F(2))])
        with pytest.raises(BackendError):
            exact.maximize_projected_all(good + [(1.0, 0.0, 0.0)])
        for checker in floats:
            with pytest.raises(DimensionError):
                checker.maximize_projected_all([(1.0, 0.0), (0.0, 1.0, 2.0), (1.0, 1.0)])

    def test_ledger_mgons_share_their_phase2_pivots(self, monkeypatch):
        from reflekt.constructions import mgon_ef
        from reflekt.oracles import mgon_orbit
        from reflekt.verify import random_objectives, verify_projection_equality

        pivot, count = _FloatCore.pivot, [0]

        def counted(core, r, c, riders=()):
            count[0] += len(core.rows) == len(core.basis)  # tree nodes hold constraint rows only
            pivot(core, r, c, riders)

        monkeypatch.setattr(_FloatCore, "pivot", counted)
        efs = [mgon_ef(m) for m in range(3, 65)]
        for m, ef in zip(range(3, 65), efs):
            assert verify_projection_equality(ef, mgon_orbit(m), 25, seed=7, tol=1e-6).passed
        assert count[0] == 5397  # one pivot per distinct path prefix
        count[0] = 0
        objectives = random_objectives(2, 25, random.Random(7), FLOAT)
        for ef in efs:
            for c in objectives:
                ef._checker.maximize_projected(c)
        assert count[0] == 14978  # one path per objective


def full_width_solve(n_vars, ineqs, eqs, objective, nonneg):
    """The exact two-phase solve on a full-width fraction-free tableau, which
    stores and updates every basic column: the reference for the condensed
    dictionary, whose Bland runs must pivot the same way."""
    rows, basis, art_of_row, nv, obj_scale = reference_stage(n_vars, ineqs, eqs, objective,
                                                             nonneg, True)
    state = {"q": 1}

    def pivot(r, c):
        piv, q, lead = rows[r][c], state["q"], rows[r]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [(piv * a - rows[i][c] * b) // q for a, b in zip(rows[i], lead)]
        state["q"] = piv
        basis[r] = c

    def run_phase(obj_idx, m, allowed):
        while True:
            col = next((j for j in allowed if rows[obj_idx][j] > 0), -1)
            if col < 0:
                return True
            best = -1
            for i in range(m):
                a = rows[i][col]
                if a > 0 and (best < 0 or (rows[i][-1] * rows[best][col], basis[i])
                              < (rows[best][-1] * a, basis[best])):
                    best = i
            if best < 0:
                return False
            pivot(best, col)

    n_struct, m = nv + len(ineqs), len(basis)
    if art_of_row:
        run_phase(m, m, range(len(rows[0]) - 1))
        if rows[m][-1] != 0:
            return LPResult(INFEASIBLE)
        for i in range(m - 1, -1, -1):
            if basis[i] < n_struct:
                continue
            col = next((j for j in range(n_struct) if rows[i][j]), -1)
            if col < 0:
                del rows[i], basis[i]
                m -= 1
                continue
            if rows[i][col] < 0:
                rows[i] = [-e for e in rows[i]]
            pivot(i, col)
    if not run_phase(m + 1, m, range(n_struct)):
        return LPResult(UNBOUNDED)
    q = state["q"]
    vals = {basis[i]: F(rows[i][-1], q) for i in range(m)}
    x = tuple(vals.get(j, F(0)) - (0 if nonneg else vals.get(n_vars + j, F(0)))
              for j in range(n_vars))
    return LPResult(OPTIMAL, F(-rows[m + 1][-1], q) / obj_scale, x)


def exact_system(data, dim):
    """A drawn exact LP: ``(ineqs, eqs, objective, nonneg)`` over rationals,
    with equations, nonnegative variables on some draws, and negative
    right-hand sides, whose rows are flipped and bring artificials."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    rhs = st.fractions(min_value=-3, max_value=5, max_denominator=3)
    row = st.tuples(*[coeff] * dim)
    ineqs = data.draw(st.lists(st.tuples(row, rhs), max_size=5))
    eqs = data.draw(st.lists(st.tuples(row, rhs), max_size=2))
    return ineqs, eqs, data.draw(row), data.draw(st.booleans())


class TestCondensedDictionary:
    """Every exact LP pivots on one condensed dictionary and keeps the
    full-width tableau's pivots and results."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_solve_system_matches_the_full_width_tableau(self, dim, data):
        ineqs, eqs, objective, nonneg = exact_system(data, dim)
        # the zero objective asks for feasibility alone
        for obj in (objective, neg(objective), (F(0),) * dim):
            got = solve_system(dim, ineqs, eqs, obj, nonneg=nonneg)
            assert got == full_width_solve(dim, ineqs, eqs, obj, nonneg), obj

    @pytest.mark.parametrize(
        "recipe, params, oracle, args, pivots",
        [
            ("huffman_quadratic", {"n": 5}, "huffman_vectors", (5,), 1491),
            ("huffman_nlogn", {"n": 5}, "huffman_vectors", (5,), 1532),
            ("parity", {"n": 7, "parity": "odd"}, "parity_vertices", (7, "odd"), 732),
            ("a_permutahedron", {"n": 6}, "permutation_orbit", ((1, 2, 3, 4, 5, 6),), 679),
            ("b_permutahedron", {"n": 4}, "signed_orbit", ((1, 2, 3, 4),), 487),
        ],
    )
    def test_benchmark_pivot_counts(self, recipe, params, oracle, args, pivots):
        """Certification proves every objective with a dual certificate and
        pivots nowhere; Bland's path stays pinned on both reduced systems of
        a built chain: the parametrised one that certification seeds
        (``direct``), and the elimination of the same Q, loaded from JSON and
        seeded with the point N w = z - part solves for the same raw point z
        (``pivots``)."""
        from reflekt import serialize
        from reflekt.verify import random_objectives, verify_projection_equality

        direct = {"huffman_quadratic": 1181, "huffman_nlogn": 1078, "parity": 631,
                  "a_permutahedron": 596, "b_permutahedron": 461}[recipe]
        ef = build_recipe(recipe, params)
        V = getattr(oracles, oracle)(*args)
        report = verify_projection_equality(ef, V, 50, seed=7)
        assert report.passed and report.objective_max_deviation == 0
        assert report.witness_hits == len(V.points)
        assert (report.lp_certified, report.lp_exact, report.lp_pivots) == (50, 0, 0)
        # certification seeds from the first vertex's witness; no objective
        # fell back, so these solves factor the dictionary too
        objectives = random_objectives(V.dim, 50, random.Random(7))
        optima = ef._checker.maximize_projected_all(objectives)
        assert ef.steps is not None and ef._checker.pivots == direct
        loaded = serialize.ef_from_dict(serialize.ef_to_dict(ef))
        assert loaded.steps is None
        checker = ProjectionChecker(loaded)
        Q = loaded.Q
        part, basis = affine_solution_space(Q.C, Q.d, dim=Q.dim, backend="exact")
        z = _walk(ef, V.points[0]).fractions()
        w, _ = affine_solution_space(tuple(zip(*basis)), vec_sub(z, part), dim=len(basis),
                                     backend="exact")
        assert checker.seed_from_raw(w)
        assert checker.maximize_projected_all(objectives) == optima
        assert checker.pivots == pivots

    def test_float_input_on_the_exact_backend(self):
        from reflekt import serialize
        from reflekt.polyhedra import point_in_projection

        fresh = build_recipe("a_permutahedron", {"n": 3})
        loaded = serialize.ef_from_dict(serialize.ef_to_dict(fresh))
        for ef in (fresh, loaded):
            checker = ProjectionChecker(ef)
            with pytest.raises(BackendError):
                checker.maximize_projected((1.0, 0.0, 0.0))
            with pytest.raises(BackendError):
                checker.feasible((1.0, 2.0, 3.0))
            with pytest.raises(BackendError):
                point_in_projection(ef, (1.0, 2.0, 3.0))
            # ints are exact
            assert checker.maximize_projected((1, 0, 0)) == (OPTIMAL, F(3))
            assert checker.feasible((1, 2, 3)) and not checker.feasible((1, 1, 1))
            assert point_in_projection(ef, (3, 1, 2))


class TestStaging:
    """One function stages the condensed dictionary of both backends: the
    nonbasic columns of the dense reference tableau, with its labels."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_float_draws_stage_the_reference_columns(self, dim, data):
        ineqs, eqs, nonneg = float_system(data, dim)
        objective = float_objective(data, dim)
        objectives = [objective, neg(objective), (0.0,) * dim]
        assert_stages_the_reference_columns(dim, ineqs, eqs, objectives, nonneg, False)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_exact_draws_stage_the_reference_columns(self, dim, data):
        ineqs, eqs, objective, nonneg = exact_system(data, dim)
        objectives = [objective, neg(objective), (F(0),) * dim]
        assert_stages_the_reference_columns(dim, ineqs, eqs, objectives, nonneg, True)

    def test_flipped_rows_and_equations_bring_artificials(self):
        # x <= 1 keeps its slack; -x <= -2 is flipped, so its slack (label 3)
        # is a slot with -1 in its row; the equation gets the next artificial
        ineqs = [((1,), 1), ((-1,), -2)]
        rows, basis, cols, scales, n_struct = _stage(1, ineqs, [((F(1, 2),), 1)],
                                                     [(3,)], False, True)
        assert (basis, cols, scales, n_struct) == ([2, 4, 5], [0, 1, 3], [1], 4)
        assert rows == [[1, -1, 0, 1], [1, -1, -1, 2], [1, -1, 0, 2],
                        [2, -2, -1, 4], [3, -3, 0, 0]]
        # with nothing to flip, the phase-1 row is zero
        rows, basis, cols, _, _ = _stage(2, [((1.0, 2.0), 3.0)], (), [(1.0, 0.0)], True, False)
        assert (rows, basis, cols) == ([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                                       [2], [0, 1])
