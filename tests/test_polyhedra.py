import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from reflekt import numeric
from reflekt.lp import LPProblem, OPTIMAL, solve
from reflekt.networks import batcher
from reflekt.numeric import (
    FLOAT,
    BackendError,
    DimensionError,
    EmptyPolyhedronError,
    ScaledPoint,
    affine_solution_space,
    dot,
    mat_vec,
    vec_add,
)
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    PolyhedralRelation,
    _witness_blocks,
    compose_extension,
    deltas,
    eliminate_equations,
    graph_relation,
    point_in_projection,
    projection_checker,
)
from reflekt.constructions import (
    _affine_unit_remap,
    a_permutahedron_ef,
    build_recipe,
    embedding_map,
    signing_ef,
    sign_chain_specs,
)
from reflekt.reflections import reflection_relation, sign_spec
from reflekt.oracles import permutation_orbit, sign_flip_orbit
from reflekt.serialize import ef_from_dict, ef_to_dict
from test_direct_system import _read


def triangle_relation():
    """conv{(0,0),(1,1),(2,0)} in (x,y)-space: y <= x, x + y <= 2, y >= 0."""
    body = HPolyhedron.from_rows(
        2,
        ineqs=[((-1, 1), 0), ((1, 1), 2), ((0, -1), 0)],
    )
    return PolyhedralRelation(1, 1, body)


class TestAffineMap:
    def test_apply_and_compose(self):
        f = AffineMap.from_rows([[0, 1], [1, 0]], [1, 0])
        assert f.apply((F(1), F(2))) == (F(3), F(1))

    def test_identity(self):
        assert AffineMap.identity(3).apply((F(1), F(2), F(3))) == (F(1), F(2), F(3))

    def test_dim_mismatch(self):
        f = AffineMap.from_rows([[1, 0]], [0])
        with pytest.raises(Exception):
            f.apply((F(1),))


class TestGraphRelation:
    def test_identity_graph(self):
        rel = graph_relation(AffineMap.identity(2))
        assert (rel.n, rel.m) == (2, 2)
        assert rel.body.n_inequalities == 0
        assert rel.body.n_equations == 2
        assert deltas(rel) == (0, 0)
        assert rel.body.contains((F(1), F(2), F(1), F(2)))
        assert not rel.body.contains((F(1), F(2), F(1), F(3)))

    def test_scheduling_step_map(self):
        # one inductive completion-time step with times (1, 2):
        # (x', u) -> (x' + 2u, 1*(1-u) + 2)
        f = AffineMap.from_rows([[1, 2], [0, -1]], [0, 3])
        rel = graph_relation(f)
        assert f.apply((F(1), F(0))) == (F(1), F(3))
        assert rel.body.contains((F(1), F(0), F(1), F(3)))

    def test_depth_embedding(self):
        f = embedding_map(4)
        assert f.apply((F(1), F(2), F(2))) == (F(1), F(2), F(3), F(3))
        rel = graph_relation(f)
        assert deltas(rel) == (0, 0)

    def test_constant_map_deltas(self):
        f = AffineMap.from_rows([[0, 0], [0, 0]], [1, 2])
        assert deltas(graph_relation(f)) == (0, 2)

    @pytest.mark.parametrize(
        "f, t, y, want",
        [
            pytest.param([[2, 0], [1, 1]], [1, 0], (7, 7), (3, 4), id="full-rank"),
            pytest.param(embedding_map(3), None, (1, 2, 5), None, id="off-image"),
            pytest.param([[1, 1], [2, 2]], [0, 1], (7, 15), (7, 0), id="rank-deficient"),
            pytest.param([[1, 1], [2, 2]], [0, 1], (7, 14), None, id="rank-deficient-off"),
            pytest.param([[0, 0], [0, 0]], [1, 2], (1, 2), (0, 0), id="constant"),
            pytest.param([[0, 0], [0, 0]], [1, 2], (1, 3), None, id="constant-off"),
            pytest.param(_affine_unit_remap(3), None, (0, 1, F(1, 2)), (1, -1, 0), id="unit-remap"),
        ],
    )
    def test_generic_preimage_inverts(self, f, t, y, want):
        if t is not None:
            f = AffineMap.from_rows(f, t)
        y = tuple(F(e) for e in y)
        rel = graph_relation(f)
        x = rel.preimage(y)
        assert x == (None if want is None else tuple(F(e) for e in want))
        if x is not None:
            assert f.apply(x) == y
        # a ScaledPoint, also one not in lowest terms, gives a ScaledPoint
        # over a multiple of its denominator
        p = ScaledPoint.of(y)
        for start in (p, ScaledPoint(tuple(6 * e for e in p.nums), 6 * p.den)):
            out = rel.preimage(start)
            if x is None:
                assert out is None
                continue
            assert isinstance(out, ScaledPoint)
            assert out.fractions() == x
            assert out.den % start.den == 0

    def test_float_map_raises(self):
        with pytest.raises(BackendError, match="graph relations are exact"):
            graph_relation(AffineMap.from_rows([[1, 1], [2, 2]], [0, 1], FLOAT))

    def test_preimage_checks_output_dim(self):
        rel = graph_relation(AffineMap.from_rows([[1, 1], [2, 2]], [0, 1]))
        with pytest.raises(DimensionError):
            rel.preimage((F(7),))


class TestDeltas:
    def test_reflection_relation(self):
        rel = reflection_relation(sign_spec(1, 3))
        assert deltas(rel) == (1, 1)

    def test_inequality_only_relation(self):
        assert deltas(triangle_relation()) == (1, 1)


class TestCompose:
    def test_identity_chain(self):
        P = HPolyhedron.box([0], [1])
        ef = compose_extension(P, [graph_relation(AffineMap.identity(1))])
        assert ef.Q.dim == 2
        assert ef.ledger.inequalities == 2
        assert ef.ledger.equations == 1
        assert ef.projection.apply((F(0), F(7))) == (F(7),)
        assert point_in_projection(ef, (F(1, 2),))
        assert not point_in_projection(ef, (F(2),))

    def test_hull_of_vertex_images_can_be_strict_subset(self):
        # base [0,2] through the triangle relation: the projection is [0,1],
        # although both base vertices map to {0} alone
        P = HPolyhedron.box([0], [2])
        ef = compose_extension(P, [triangle_relation()])
        checker = projection_checker(ef)
        assert checker.maximize_projected((F(1),)) == (OPTIMAL, F(1))
        assert checker.maximize_projected((F(-1),)) == (OPTIMAL, F(0))
        assert point_in_projection(ef, (F(1, 2),))
        assert point_in_projection(ef, (F(1),))
        assert not point_in_projection(ef, (F(3, 2),))

    def test_ledger_arithmetic(self):
        P = HPolyhedron.point((F(1), F(0)))
        rels = [reflection_relation(sign_spec(1, 2)) for _ in range(3)]
        ef = compose_extension(P, rels)
        assert ef.ledger.inequalities == 6
        assert ef.ledger.inequalities == P.n_inequalities + sum(
            r.body.n_inequalities for r in rels
        )
        assert ef.ledger.equations == P.n_equations + sum(
            r.body.n_equations for r in rels
        )
        assert ef.ledger.raw_variables == 2 * 4

    def test_empty_chain_returns_base(self):
        P = HPolyhedron.box([0, 0], [1, 1])
        ef = compose_extension(P, [])
        assert ef.Q.dim == 2
        assert ef.projection.apply((F(1), F(0))) == (F(1), F(0))
        assert point_in_projection(ef, (F(1, 2), F(1, 2)))

    def test_type_chain_mismatch(self):
        P = HPolyhedron.box([0], [1])
        rel = graph_relation(AffineMap.identity(2))
        with pytest.raises(Exception):
            compose_extension(P, [rel])

    def test_fiber_dimension_bound(self):
        n = 3
        ef = signing_ef(HPolyhedron.point((F(1), F(2), F(3))), n)
        # each reflection relation contributes one fiber dimension
        assert ef.ledger.reduced_variable_bound == n + n


class TestEliminate:
    def test_trivial_example(self):
        P = HPolyhedron.box([0], [1])
        ef = compose_extension(P, [graph_relation(AffineMap.identity(1))])
        red = eliminate_equations(ef)
        assert red.Q.dim == 1
        assert red.ledger.raw_variables == 1
        assert red.Q.n_inequalities == 2
        assert red.Q.n_equations == 0

    def test_projection_optima_preserved(self):
        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        red = eliminate_equations(ef)
        rng = random.Random(11)
        for _ in range(20):
            c = tuple(F(rng.randint(-10, 10)) for _ in range(3))
            raw_obj = tuple(dot(c, col) for col in zip(*ef.projection.M))
            red_obj = tuple(dot(c, col) for col in zip(*red.projection.M)) if red.Q.dim else ()
            raw = solve(LPProblem(ef.Q, raw_obj, "max"))
            reduced = solve(LPProblem(red.Q, red_obj, "max"))
            assert raw.status == OPTIMAL and reduced.status == OPTIMAL
            assert raw.value + dot(c, ef.projection.t) == reduced.value + dot(
                c, red.projection.t
            )

    def test_reduced_count_respects_bound(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        red = eliminate_equations(ef)
        assert red.ledger.raw_variables == 2
        assert red.ledger.raw_variables <= red.ledger.reduced_variable_bound

    def test_inconsistent_equations(self):
        Q = HPolyhedron.from_rows(1, eqs=[((1,), 0), ((1,), 1)])
        ef = compose_extension(Q, [])
        with pytest.raises(EmptyPolyhedronError):
            eliminate_equations(ef)
        checker = projection_checker(ef)
        assert not checker.consistent
        assert not checker.feasible((F(0),))
        assert not point_in_projection(ef, (F(0),))  # its walk is no witness

    def test_checker_rejects_points_of_the_wrong_length(self):
        checker = projection_checker(build_recipe("a_permutahedron", {"n": 3}))
        assert checker.feasible((F(2), F(1), F(3)))
        assert not checker.feasible((F(1), F(1), F(4)))
        for y in [(F(1), F(2)), (F(1), F(2), F(3), F(99))]:
            with pytest.raises(DimensionError):
                checker.feasible(y)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("a_permutahedron", {"n": 4}),
            ("huffman_quadratic", {"n": 4}),
            ("parity", {"n": 5}),
            ("mgon", {"m": 8}),
            ("mgon", {"m": 3}),
            ("mgon", {"m": 17}),
            ("mgon", {"m": 64}),
        ],
    )
    def test_checker_and_elimination_share_the_reduction(self, name, params):
        # Q parametrised as its own base: the float m-gon chain as built, an
        # exact chain loaded from JSON (no steps); repr tells -0.0 from 0.0
        ef = build_recipe(name, params)
        if ef.backend != FLOAT:
            ef = ef_from_dict(ef_to_dict(ef))
        red = eliminate_equations(ef)
        checker = projection_checker(ef)
        assert ef.steps is None
        assert checker.n_free == red.Q.dim == red.ledger.raw_variables
        assert (checker.A_red, checker.b_red) == (red.Q.A, red.Q.b)
        assert (checker.M_red, checker.t_red) == (red.projection.M, red.projection.t)
        # the sparse products equal dense dot products over every coordinate
        Q, M = ef.Q, ef.projection.M
        part, basis = affine_solution_space(Q.C, Q.d, dim=Q.dim, backend=Q.backend)
        assert (checker.z_part, checker.N_cols) == (part, basis)
        dense = (tuple(tuple(dot(row, col) for col in basis) for row in Q.A),
                 tuple(rhs - dot(row, part) for row, rhs in zip(Q.A, Q.b)),
                 tuple(tuple(dot(row, col) for col in basis) for row in M),
                 vec_add(mat_vec(M, part), ef.projection.t))
        assert repr((red.Q.A, red.Q.b, red.projection.M, red.projection.t)) == repr(dense)

    @pytest.mark.parametrize(
        "name, params",
        [("a_permutahedron", {"n": 4}), ("huffman_quadratic", {"n": 4}), ("parity", {"n": 5}),
         ("completion_time", {"p": [1, 2, 3]})],
    )
    def test_parametrised_chain_is_q_on_its_equations(self, name, params):
        # the direct path: on every point z of Q's equations, with u the
        # reduced point z stands for (the reference reading of its columns),
        # Q's rows and projection are the reduced ones, A z - b =
        # A_red u - b_red and Mz + t = M_red u + t_red; the identity is
        # affine in z, so the particular point and one step along each
        # null-space direction cover it
        ef = build_recipe(name, params)
        red = eliminate_equations(ef)
        checker = projection_checker(ef)
        assert ef.steps is not None
        assert (checker.A_red, checker.b_red) == (red.Q.A, red.Q.b)
        assert (checker.M_red, checker.t_red) == (red.projection.M, red.projection.t)
        Q, proj = ef.Q, ef.projection
        part, basis = affine_solution_space(Q.C, Q.d, dim=Q.dim, backend=Q.backend)
        assert checker.n_free == len(basis) == red.ledger.raw_variables
        for z in [part] + [vec_add(part, col) for col in basis]:
            u = _read(ef, z)
            assert [dot(row, z) - rhs for row, rhs in zip(Q.A, Q.b)] == [
                dot(row, u) - rhs for row, rhs in zip(checker.A_red, checker.b_red)]
            assert proj.apply(z) == vec_add(mat_vec(checker.M_red, u), checker.t_red)

    def test_reads_the_cached_checker(self, monkeypatch):
        ef = build_recipe("huffman_quadratic", {"n": 4})
        checker = projection_checker(ef)
        calls = []
        rref = numeric.rref
        monkeypatch.setattr(numeric, "rref", lambda *a, **k: calls.append(a) or rref(*a, **k))
        red = eliminate_equations(ef)
        assert calls == []
        assert red.Q.A is checker.A_red and red.Q.b is checker.b_red


class TestPointInProjection:
    def test_permutahedron_members(self):
        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        assert point_in_projection(ef, (F(2), F(1), F(3)))
        assert not point_in_projection(ef, (F(1), F(1), F(4)))

    def test_base_point_through_identity_chain(self):
        P = HPolyhedron.point((F(1), F(2)))
        ef = compose_extension(P, [graph_relation(AffineMap.identity(2))])
        assert point_in_projection(ef, (F(1), F(2)))

    def test_witness_and_lp_paths_agree(self):
        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        bare = compose_extension(ef.base, ef.relations)
        bare.base = None
        bare.relations = None  # force the LP path
        for y in permutation_orbit((1, 2, 3)).points:
            assert point_in_projection(ef, y) == point_in_projection(bare, y)
        for y in [(F(1), F(1), F(4)), (F(2), F(2), F(2)), (F(0), F(0), F(0))]:
            assert point_in_projection(ef, y) == point_in_projection(bare, y)

    def test_witness_is_checked_against_every_row_of_q(self):
        # a graph relation whose preimage ignores y: the preimage always
        # lies in the base, but it projects to y only when y is the origin
        P = HPolyhedron.box([0, 0], [1, 1])
        rel = replace(
            graph_relation(AffineMap.identity(2)),
            preimage=lambda y, tol=1e-9: ScaledPoint((0, 0), 1),
        )
        ef = compose_extension(P, [rel])
        assert _witness_blocks(ef, (F(0), F(0)), 1e-9) == ScaledPoint((0, 0), 1)
        for y, inside in [((F(1), F(1)), True), ((F(2), F(0)), False)]:
            assert _witness_blocks(ef, y, 1e-9) is None
            assert point_in_projection(ef, y) is inside

    def test_monotonicity_in_the_base(self):
        # point base vs segment base over the same sign-change chain: every
        # member of the small projection stays feasible for the larger one
        chain = sign_chain_specs(2)
        small = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        segment = HPolyhedron.from_rows(
            2,
            ineqs=[((1, 0), 2), ((-1, 0), -1)],
            eqs=[((1, -1), -1)],  # x2 = x1 + 1, x1 in [1,2]
        )
        big = signing_ef(segment, 2)
        for y in sign_flip_orbit((1, 2)).points:
            assert point_in_projection(small, y)
            assert point_in_projection(big, y)

    def test_dimension_check(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        with pytest.raises(Exception):
            point_in_projection(ef, (F(1),))

    @pytest.mark.parametrize("recipe, params", [("parity", {"n": 3}), ("signing", {"n": 2})])
    def test_float_point_on_exact_chain_rejected(self, recipe, params):
        ef = build_recipe(recipe, params)
        with pytest.raises(BackendError):
            point_in_projection(ef, (1.0,) * ef.projection.out_dim)


class TestVarNames:
    def test_block_names(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        names = ef.var_names()
        assert names[:2] == ["z0_1", "z0_2"]
        assert names[-1] == "z2_2"

    def test_reduced_names(self):
        ef = eliminate_equations(signing_ef(HPolyhedron.point((F(1), F(2))), 2))
        assert ef.var_names() == ["x1", "x2"]
