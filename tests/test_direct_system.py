"""The reduced system an exact chain's checker writes from its steps, one
column per reflection, against the elimination of the same Q's equations.

Everything here is exact: no float enters and no tolerance is read."""

import random
from fractions import Fraction as F

import pytest

from reflekt import oracles
from reflekt.constructions import RECIPES, _box_lift_relation, build_recipe
from reflekt.lp import ProjectionChecker
from reflekt.numeric import ScaledPoint, dot, mat_vec, unit_vector, vec_add, vec_scale
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
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
    assert direct.E is not None and eliminated.E is None
    assert direct.n_free == eliminated.n_free
    V = getattr(oracles, oracle)(*args)
    objectives = random_objectives(V.dim, 20, random.Random(16))
    for sense in ("max", "min"):
        optima = direct.maximize_projected_all(objectives, sense)
        assert optima == eliminated.maximize_projected_all(objectives, sense)
    # every vertex, and each vertex moved half a unit along one axis
    points = list(V.points)
    points += [vec_add(v, vec_scale(F(1, 2), unit_vector(i % V.dim, V.dim, "exact")))
               for i, v in enumerate(V.points)]
    verdicts = [point_in_projection(built, y) for y in points]
    assert verdicts == [point_in_projection(loaded, y) for y in points]
    assert verdicts == [direct.feasible(y) for y in points]
    assert all(verdicts[: len(V.points)])


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
