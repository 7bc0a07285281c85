"""The reduced system an exact chain's checker writes from its steps, one
column per reflection, against the same Q parametrised as its own base.

Everything here is exact: no float enters and no tolerance is read."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from reflekt import oracles
from reflekt.constructions import RECIPES, _box_lift_relation, build_recipe
from reflekt.lp import ProjectionChecker
from reflekt.numeric import (
    DimensionError,
    ScaledPoint,
    affine_solution_space,
    dot,
    mat_vec,
    unit_vector,
    vec_add,
    vec_scale,
    vec_sub,
)
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    PolyhedralRelation,
    _witness_blocks,
    _step_deltas,
    compose_extension,
    deltas,
    graph_relation,
    point_in_projection,
    projection_checker,
)
from reflekt.reflections import ReflectionSpec, reflection_relation
from reflekt.serialize import ef_from_dict, ef_to_dict
from reflekt.verify import random_objectives

EXACT_RECIPES = [
    ("signing", {"n": 3}, "sign_flip_orbit", ((1, 2, 3),)),
    ("a_permutahedron", {"n": 4}, "permutation_orbit", ((1, 2, 3, 4),)),
    ("b_permutahedron", {"n": 3}, "signed_orbit", ((1, 2, 3),)),
    ("d_permutahedron", {"n": 3}, "even_signed_orbit", ((1, 2, 3),)),
    ("parity", {"n": 4, "parity": "even"}, "parity_vertices", (4, "even")),
    ("huffman_quadratic", {"n": 4}, "huffman_vectors", (4,)),
    ("huffman_nlogn", {"n": 5}, "huffman_vectors", (5,)),
    ("completion_time", {"p": [1, 2, 3]}, "completion_time_vertices", ((1, 2, 3),)),
]


@pytest.mark.parametrize("name, params, oracle, args", EXACT_RECIPES,
                         ids=[r[0] for r in EXACT_RECIPES])
def test_built_chain_matches_the_elimination_of_its_q(name, params, oracle, args):
    built = build_recipe(name, params)
    loaded = ef_from_dict(ef_to_dict(built))  # the same Q, without steps
    direct, eliminated = projection_checker(built), projection_checker(loaded)
    assert built.steps is not None and loaded.steps is None
    assert direct.n_free == eliminated.n_free
    V = getattr(oracles, oracle)(*args)
    objectives = random_objectives(V.dim, 20, random.Random(16))
    for sense in ("max", "min"):
        optima = direct.maximize_projected_all(objectives, sense)
        assert optima == eliminated.maximize_projected_all(objectives, sense)
    points = _moved(V)
    verdicts = [point_in_projection(built, y) for y in points]
    assert verdicts == [point_in_projection(loaded, y) for y in points]
    assert verdicts == [direct.feasible(y) for y in points]
    assert all(verdicts[: len(V.points)])


def _moved(V):
    """Every vertex, then each vertex moved half a unit along one axis."""
    return list(V.points) + [vec_add(v, vec_scale(F(1, 2), unit_vector(i % V.dim, V.dim, "exact")))
                             for i, v in enumerate(V.points)]


@pytest.mark.parametrize("name, params, oracle, args", EXACT_RECIPES,
                         ids=[r[0] for r in EXACT_RECIPES])
def test_a_loaded_chain_reads_each_witness_as_its_elimination_solves_it(
        name, params, oracle, args):
    # E on Q's free coordinates against N w = z - part, solved as the
    # checker of a loaded document once did
    built = build_recipe(name, params)
    loaded = ef_from_dict(ef_to_dict(built))
    checker = projection_checker(loaded)
    Q = loaded.Q
    part, basis = affine_solution_space(Q.C, Q.d, dim=Q.dim, backend="exact")
    N = tuple(zip(*basis))
    for v in getattr(oracles, oracle)(*args).points:
        z = _witness_blocks(built, v, 0)
        w, _ = affine_solution_space(N, vec_sub(z.fractions(), part), dim=len(basis),
                                     backend="exact")
        assert checker.reduced_point(z) == w
        assert checker.certifies(z)


@pytest.mark.parametrize("name, params, oracle, args", EXACT_RECIPES,
                         ids=[r[0] for r in EXACT_RECIPES])
def test_a_proved_maximum_is_the_lp_maximum(name, params, oracle, args):
    # at every vertex's witness, maximisers or not: a certificate holds only
    # where Bland's rule finds the same value
    ef = build_recipe(name, params)
    checker = projection_checker(ef)
    V = getattr(oracles, oracle)(*args)
    objectives = random_objectives(V.dim, 20, random.Random(18))
    optima = [checker.maximize_projected(c) for c in objectives]
    proved = 0
    for v in V.points:
        z = _witness_blocks(ef, v, 0)
        assert z is not None
        for c, optimum in zip(objectives, optima):
            if checker.proves_max(z, [int(e) for e in c]):
                assert optimum == ("optimal", dot(c, v))
                proved += 1
    assert proved >= len(objectives)


def test_a_bare_relation_chain_certifies_as_the_lp_decides():
    built = build_recipe("a_permutahedron", {"n": 4})
    bare = compose_extension(
        built.base, [PolyhedralRelation(r.n, r.m, r.body, r.preimage) for r in built.relations])
    assert bare.steps is None
    checker = projection_checker(bare)
    points = _moved(oracles.permutation_orbit((1, 2, 3, 4)))
    verdicts = [checker.feasible(y) for y in points]
    assert verdicts == [checker.certifies(_walk(bare, y)) for y in points]
    assert verdicts == [_witness_blocks(bare, y, 0) is not None for y in points]
    assert verdicts.count(True) == 24


def test_a_copy_with_a_new_projection_takes_no_witness_for_the_old_one():
    # the walk still ends at y, so only the reduced projection rows show
    # that the doubled projection of z is 2y, not y
    ef = build_recipe("a_permutahedron", {"n": 3})
    P = ef.projection
    doubled = replace(ef, projection=AffineMap(tuple(tuple(2 * e for e in r) for r in P.M), P.t))
    assert doubled.steps is None
    y = (F(1), F(2), F(3))
    assert _witness_blocks(doubled, y, 0) is None
    assert not point_in_projection(doubled, y)
    assert point_in_projection(doubled, (F(2), F(4), F(6)))


def test_a_witness_of_the_wrong_length_raises():
    ef = build_recipe("a_permutahedron", {"n": 3})
    dim = ef.Q.dim
    for checker in (projection_checker(ef), projection_checker(ef_from_dict(ef_to_dict(ef)))):
        for k in (dim - 1, dim + 1):
            with pytest.raises(DimensionError):
                checker.certifies(ScaledPoint((1,) * k, 1))
    # a copy whose Q has one coordinate more than the chain's blocks
    Q, proj, zero = ef.Q, ef.projection, F(0)
    wide = replace(
        ef, Q=HPolyhedron(dim + 1, tuple(r + (zero,) for r in Q.A), Q.b,
                          tuple(r + (zero,) for r in Q.C), Q.d),
        projection=AffineMap(tuple(r + (zero,) for r in proj.M), proj.t),
        block_dims=ef.block_dims[:-1] + (ef.block_dims[-1] + 1,))
    with pytest.raises(DimensionError):
        point_in_projection(wide, (F(1), F(2), F(3)))


def _rows(ef, u, z):
    """Q's inequality rows at z against the checker's reduced rows at u,
    both as lhs - rhs, and the body's equation residuals at z."""
    checker = ProjectionChecker(ef)
    Q = ef.Q
    at_z = [dot(row, z) - rhs for row, rhs in zip(Q.A, Q.b)]
    at_u = [dot(row, u) - rhs for row, rhs in zip(checker.A_red, checker.b_red)]
    residuals = [dot(row, z) - rhs for row, rhs in zip(Q.C, Q.d)]
    return checker, at_z, at_u, residuals


def _unit_points(k):
    return [(F(0),) * k] + [unit_vector(i, k, "exact") for i in range(k)]


# one relation of each step kind over a free base, the box [-1,1]^n, with
# its parametrisation z(u) written out: the base block is u's first n
# coordinates, the relation's output follows from the step
STEP_CASES = {
    "reflection": (
        reflection_relation(ReflectionSpec((F(2, 3), F(-1), F(5, 2)), F(3, 4))), 3,
        lambda u: u[:3] + vec_add(u[:3], vec_scale(u[3], (F(2, 3), F(-1), F(5, 2))))),
    "map": (
        graph_relation(AffineMap.from_rows([(1, F(-1, 2)), (0, 3), (F(7, 5), 2)], [1, F(-2), 0])),
        2, lambda u: u + vec_add(mat_vec(((1, F(-1, 2)), (0, 3), (F(7, 5), 2)), u),
                                 (1, F(-2), 0))),
    "box": (_box_lift_relation(3), 2, lambda u: u[:2] + u[:2] + u[2:]),
}


@pytest.mark.parametrize("kind", sorted(STEP_CASES))
def test_each_step_substitutes_into_its_body(kind):
    rel, n, z_of = STEP_CASES[kind]
    assert rel.step[0] == kind
    base = HPolyhedron.box([-1] * n, [1] * n)
    ef = compose_extension(base, [rel])
    n_free = ProjectionChecker(ef).n_free
    assert n_free == n + {"reflection": 1, "map": 0, "box": 2}[kind]
    for u in _unit_points(n_free):
        z = z_of(u)
        checker, at_z, at_u, residuals = _rows(ef, u, z)
        assert residuals == [0] * len(ef.Q.C)  # 0 on every equation row
        assert at_z == at_u  # exactly the parametrised inequality rows
        assert checker.reduced_point(z) == u
        assert ef.projection.apply(z) == vec_add(mat_vec(checker.M_red, u), checker.t_red)


def test_fiber_dimensions_of_each_step_kind_match_the_body():
    smallest = {"signing": {"n": 2}, "mgon": {"m": 5}, "i2_permutahedron": {"m": 3},
                "a_permutahedron": {"n": 3}, "b_permutahedron": {"n": 3},
                "d_permutahedron": {"n": 3}, "parity": {"n": 3, "parity": "odd"},
                "huffman_quadratic": {"n": 4}, "huffman_nlogn": {"n": 4},
                "completion_time": {"p": [1, 2, 3]}}
    kinds = set()
    for name in RECIPES:
        for rel in build_recipe(name, smallest[name]).relations:
            kinds.add(rel.step[0])
            assert _step_deltas(rel) == deltas(rel), (name, rel.step)
    assert kinds == set(STEP_CASES)
    for rel, _, _ in STEP_CASES.values():
        assert _step_deltas(rel) == deltas(rel)


def _walk(ef, y):
    """The raw point the canonical-preimage walk assembles for y."""
    blocks = [ScaledPoint.of(y)]
    for rel in reversed(ef.relations):
        blocks.append(rel.preimage(blocks[-1]))
    blocks.reverse()
    den = blocks[0].den
    return ScaledPoint(tuple(e * (den // b.den) for b in blocks for e in b.nums), den)


@pytest.mark.parametrize("y, inside", [((1, 1, 4), False), ((2, 2, 2), True)])
def test_a_walk_off_the_base_is_no_witness(y, inside):
    ef = build_recipe("a_permutahedron", {"n": 3})
    checker = projection_checker(ef)
    assert checker.E is not None
    y = tuple(F(e) for e in y)
    z = _walk(ef, y)
    assert z.fractions()[:3] != (1, 2, 3)  # the walk ends off the base point
    u = checker.reduced_point(z)
    if y == (1, 1, 4):
        # every reduced row holds at u: only the projection test rejects it
        assert all(dot(row, u) <= rhs for row, rhs in zip(checker.A_red, checker.b_red))
    assert vec_add(mat_vec(checker.M_red, u), checker.t_red) != y
    assert not checker.certifies(z)
    assert _witness_blocks(ef, y, 0) is None
    assert checker.feasible(y) is inside
    assert point_in_projection(ef, y) is inside
