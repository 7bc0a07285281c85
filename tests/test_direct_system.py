"""The reduced system an exact chain's checker writes from its steps, one
column per reflection, against the same Q parametrised as its own base.

Everything here is exact: no float enters and no tolerance is read."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from reflekt import oracles, verify
from reflekt.constructions import RECIPES, _box_lift_relation, a_permutahedron_ef, build_recipe
from reflekt.networks import batcher
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
    eliminate_equations,
    graph_relation,
    point_in_projection,
    projection_checker,
)
from reflekt.reflections import ReflectionSpec, reflect_point, reflection_relation
from reflekt.serialize import ef_from_dict, ef_to_dict
from reflekt.verify import random_objectives, verify_projection_equality

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
    for objs in (objectives, [tuple(-e for e in c) for c in objectives]):
        assert direct.maximize_projected_all(objs) == eliminated.maximize_projected_all(objs)
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
    # the walk reads the built chain's u as the reference reads its raw
    # point; the loaded chain takes no witness, but its reading of the same
    # raw point is the w that N w = z - part solves for, and certifies
    built = build_recipe(name, params)
    loaded = ef_from_dict(ef_to_dict(built))
    direct, checker = projection_checker(built), projection_checker(loaded)
    Q = loaded.Q
    part, basis = affine_solution_space(Q.C, Q.d, dim=Q.dim, backend="exact")
    N = tuple(zip(*basis))
    for v in getattr(oracles, oracle)(*args).points:
        z = _walk(built, v)
        u = _witness_blocks(built, v, 0)
        assert u.fractions() == _read(built, z)
        assert direct.certifies(u, v)
        w, _ = affine_solution_space(N, vec_sub(z.fractions(), part), dim=len(basis),
                                     backend="exact")
        assert _read(loaded, z) == w
        assert checker.certifies(w, v)
        assert _witness_blocks(loaded, v, 0) is None


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
        u = _witness_blocks(ef, v, 0)
        assert u is not None
        for c, optimum in zip(objectives, optima):
            if checker.proves_max(u, [int(e) for e in c]):
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
    assert verdicts == [point_in_projection(bare, y) for y in points]
    assert all(_witness_blocks(bare, y, 0) is None for y in points)
    assert verdicts.count(True) == 24


@pytest.mark.parametrize("form", ["bare", "replaced", "loaded"])
def test_a_formulation_without_steps_certifies_as_its_built_chain(form):
    built = build_recipe("a_permutahedron", {"n": 4})
    other = {
        "bare": lambda: compose_extension(built.base, [
            PolyhedralRelation(r.n, r.m, r.body, r.preimage) for r in built.relations],
            built.label),
        "replaced": lambda: replace(built, Q=replace(built.Q)),
        "loaded": lambda: ef_from_dict(ef_to_dict(built)),
    }[form]()
    assert other.steps is None
    V = oracles.permutation_orbit((1, 2, 3, 4))
    want = verify_projection_equality(built, V, 50, seed=7)
    got = verify_projection_equality(other, V, 50, seed=7)
    assert got.to_json() == want.to_json()
    assert (got.witness_hits, got.lp_fallbacks) == (0, 24)


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
    y = (F(1), F(2), F(3))
    for checker in (projection_checker(ef), projection_checker(ef_from_dict(ef_to_dict(ef)))):
        for k in (checker.n_free - 1, checker.n_free + 1):
            with pytest.raises(DimensionError):
                checker.certifies(ScaledPoint((1,) * k, 1), y)
    # a copy whose Q has one coordinate more than the chain's blocks has no
    # steps, so no walk reads it: the LP decides, with the new coordinate free
    dim, Q, proj, zero = ef.Q.dim, ef.Q, ef.projection, F(0)
    wide = replace(
        ef, Q=HPolyhedron(dim + 1, tuple(r + (zero,) for r in Q.A), Q.b,
                          tuple(r + (zero,) for r in Q.C), Q.d),
        projection=AffineMap(tuple(r + (zero,) for r in proj.M), proj.t),
        block_dims=ef.block_dims[:-1] + (ef.block_dims[-1] + 1,))
    assert wide.steps is None and _witness_blocks(wide, y, 0) is None
    assert point_in_projection(wide, y)


def test_a_wrong_length_objective_or_target_raises():
    # zip once truncated an objective one entry too long, and proved it
    ef = build_recipe("a_permutahedron", {"n": 3})
    checker = projection_checker(ef)
    y = (F(1), F(2), F(3))
    u = _witness_blocks(ef, y, 0)
    assert checker.proves_max(u, [0, 0, 1])
    for c in ([0, 0, 1, 5, 7], [0, 0]):
        with pytest.raises(DimensionError):
            checker.proves_max(u, c)
        with pytest.raises(DimensionError):
            checker.maximize_projected(c)
    for target in (y[:2], y + (F(0),)):
        with pytest.raises(DimensionError):
            checker.certifies(u, target)


def _rows(ef, u, z):
    """Q's inequality rows at z against the reduced rows at u, both as
    lhs - rhs, and the body's equation residuals at z; the reduced system
    is read from its Fraction view, the eliminated formulation."""
    red, Q = eliminate_equations(ef), ef.Q
    at_z = [dot(row, z) - rhs for row, rhs in zip(Q.A, Q.b)]
    at_u = [dot(row, u) - rhs for row, rhs in zip(red.Q.A, red.Q.b)]
    residuals = [dot(row, z) - rhs for row, rhs in zip(Q.C, Q.d)]
    return red, at_z, at_u, residuals


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
        red, at_z, at_u, residuals = _rows(ef, u, z)
        assert residuals == [0] * len(ef.Q.C)  # 0 on every equation row
        assert at_z == at_u  # exactly the parametrised inequality rows
        assert _read(ef, z) == u
        assert ef.projection.apply(z) == red.projection.apply(u)


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


def _read(ef, z):
    """The reduced point that the raw point z stands for, over the checker's
    columns: the base's free coordinates (the last nonzero of each basis
    column), then <a, y - x>/<a,a> per reflection and the k output
    coordinates per box lift; a map adds none.  A formulation without steps
    is Q over its own free coordinates."""
    z = z.fractions() if isinstance(z, ScaledPoint) else tuple(F(e) for e in z)
    base, steps = (ef.Q, ()) if ef.steps is None else (ef.base, ef.steps)
    _, basis = affine_solution_space(base.C, base.d, dim=base.dim, backend="exact")
    u = [z[max(j for j, v in enumerate(col) if v)] for col in basis]
    x = 0  # the offset of the step's input block in z
    for (kind, data), rel in zip(steps, ef.relations or ()):
        y = x + rel.n
        if kind == "reflection":
            a = data.a
            u.append(dot(a, vec_sub(z[y : y + rel.m], z[x:y])) / dot(a, a))
        elif kind == "box":
            u.extend(z[y + rel.m - data : y + rel.m])
        x = y
    return tuple(u)


def test_a_base_with_equations_is_read_at_its_free_coordinates():
    # the sorted part of the permutahedron of (1,2,3): sum 6 leaves x1 a
    # pivot of the base's equations, and each basis column is nonzero there
    # too, so only its last nonzero is the free coordinate
    base = HPolyhedron.from_rows(3, [((-1, 0, 0), -1), ((-1, -1, 0), -3), ((1, -1, 0), 0),
                                     ((0, 1, -1), 0)], [((1, 1, 1), 6)])
    ef = a_permutahedron_ef(base, 3, batcher(3))
    checker = projection_checker(ef)
    assert ef.steps is not None and len(checker.N_cols) == 2
    points = _moved(oracles.permutation_orbit((1, 2, 3)))
    points += [(F(2), F(2), F(2)), (F(3, 2), F(3), F(3, 2))]
    for y in points:
        u = _witness_blocks(ef, y, 0)
        assert (u is not None) is checker.feasible(y)
        if u is not None:
            assert u.fractions() == _read(ef, _walk(ef, y))


@pytest.mark.parametrize("y, inside", [((1, 1, 4), False), ((2, 2, 2), True)])
def test_a_walk_off_the_base_is_no_witness(y, inside):
    ef = build_recipe("a_permutahedron", {"n": 3})
    checker = projection_checker(ef)
    assert ef.steps is not None
    y = tuple(F(e) for e in y)
    z = _walk(ef, y)
    assert z.fractions()[:3] != (1, 2, 3)  # the walk ends off the base point
    u = _read(ef, z)
    red = eliminate_equations(ef)
    if y == (1, 1, 4):
        # every reduced row holds at u: only the projection test rejects it
        assert red.Q.contains(u)
    assert red.projection.apply(u) != y
    assert not checker.certifies(u, y)
    assert _witness_blocks(ef, y, 0) is None
    assert checker.feasible(y) is inside
    assert point_in_projection(ef, y) is inside


def _recorded(monkeypatch):
    """Record each call of ``verify._witness_blocks`` as (y, memo, witness)."""
    calls, inner = [], verify._witness_blocks

    def recording(ef, y, tol, memo):
        w = inner(ef, y, tol, memo)
        calls.append((y, memo, w))
        return w

    monkeypatch.setattr(verify, "_witness_blocks", recording)
    return calls


@pytest.mark.parametrize("name, params, oracle, args", EXACT_RECIPES,
                         ids=[r[0] for r in EXACT_RECIPES])
def test_a_shared_walk_gives_each_vertex_its_own_witness(monkeypatch, name, params, oracle,
                                                          args):
    # the vertices of one certification share one memo of walk tails; each
    # witness is still the one a walk of its vertex alone reads
    ef = build_recipe(name, params)
    V = getattr(oracles, oracle)(*args)
    calls = _recorded(monkeypatch)
    report = verify_projection_equality(ef, V, n_objectives=5, seed=3)
    assert report.passed and report.witness_hits == len(V.points) == len(calls)
    memo = calls[0][1]
    assert all(m is memo for _, m, _ in calls)
    assert 0 not in {level for level, _ in memo}  # a vertex is never stored
    for v, (y, _, w) in zip(V.points, calls):
        assert y.fractions() == v
        alone = _witness_blocks(ef, v, 0)
        assert w.fractions() == alone.fractions() == _read(ef, _walk(ef, v))
    # points off the vertices, half of them outside: the same verdicts and
    # witnesses through one memo as one walk each
    memo = {}
    for y in _moved(V):
        shared, alone = _witness_blocks(ef, y, 0, memo), _witness_blocks(ef, y, 0)
        assert (shared is None) is (alone is None)
        assert shared is None or shared.fractions() == alone.fractions()


def test_a_loaded_document_walks_no_vertex(monkeypatch):
    loaded = ef_from_dict(ef_to_dict(build_recipe("a_permutahedron", {"n": 4})))
    V = oracles.permutation_orbit((1, 2, 3, 4))
    calls = _recorded(monkeypatch)
    report = verify_projection_equality(loaded, V, n_objectives=5, seed=3)
    assert report.passed and report.lp_fallbacks == len(V.points) == len(calls)
    assert [w for _, _, w in calls] == [None] * len(V.points)
    assert calls[0][1] == {}


def _rejected(ef, V, monkeypatch):
    """The vertices a certification's shared walk rejects, and those that
    certifies rejects at the witness a reference walk of each reads."""
    checker = projection_checker(ef)
    reference = {k for k, v in enumerate(V.points)
                 if not checker.certifies(_read(ef, _walk(ef, v)), v)}
    calls = _recorded(monkeypatch)
    verify_projection_equality(ef, V, n_objectives=0)
    return {k for k, (_, _, w) in enumerate(calls) if w is None}, reference


def test_a_corrupted_rhs_rejects_the_vertices_certifies_rejects(monkeypatch):
    # lower the rhs of the row, deepest in the walk, that is tight at some
    # vertices and slack at others: the row is checked once per shared tail,
    # and still against every vertex's values
    ef = build_recipe("a_permutahedron", {"n": 4})
    V = oracles.permutation_orbit((1, 2, 3, 4))
    checker = projection_checker(ef)
    us = [_read(ef, _walk(ef, v)) for v in V.points]
    by_last = checker.int_rows()[1]  # the integer rows the walk reads

    def at(row, u):
        return sum(c * u[j] for j, c in row)

    varying = [(k, i) for k, group in enumerate(by_last) for i, (row, _, _) in enumerate(group)
               if len({at(row, u) for u in us}) > 1]
    k, i = min(varying)  # the first row of the least last nonzero column
    assert k < max(k for k, group in enumerate(by_last) if group)
    row, _, f = by_last[k][i]
    peak = max(at(row, u) for u in us)
    # row/f <= peak/f - 1/2, times 2q for q the denominator of peak
    q = peak.denominator
    by_last[k][i] = ([(j, 2 * q * c) for j, c in row], 2 * peak.numerator - q * f, 2 * q * f)
    shared, reference = _rejected(ef, V, monkeypatch)
    assert shared == reference
    assert 0 < len(shared) < len(V.points)


def test_a_preimage_wrong_for_some_points_rejects_the_vertices_certifies_rejects(monkeypatch):
    # one relation mid-chain mirrors every point, so the walk leaves the
    # canonical path exactly where a point lies strictly inside its halfspace
    built = build_recipe("a_permutahedron", {"n": 4})
    rels = list(built.relations)
    k = len(rels) // 2
    spec = rels[k].step[1]

    def mirrored(y, tol=0):
        return ScaledPoint(tuple(int(e * y.den) for e in reflect_point(spec, y.fractions())),
                           y.den)

    rels[k] = replace(rels[k], preimage=mirrored)
    ef = compose_extension(built.base, rels, built.label)
    assert ef.steps is not None
    V = oracles.permutation_orbit((1, 2, 3, 4))
    shared, reference = _rejected(ef, V, monkeypatch)
    assert shared == reference
    assert 0 < len(shared) < len(V.points)


def test_certification_caches_no_walk_on_the_formulation_or_its_checker():
    ef = build_recipe("b_permutahedron", {"n": 3})
    checker = projection_checker(ef)
    before = set(vars(ef)), set(vars(checker))
    report = verify_projection_equality(ef, oracles.signed_orbit((1, 2, 3)), n_objectives=5)
    assert report.passed and report.witness_hits == 48
    assert (set(vars(ef)), set(vars(checker))) == before
    assert not any(isinstance(v, dict) for obj in (ef, checker) for v in vars(obj).values())
