import hashlib
import itertools
import json
import signal
from dataclasses import replace
from fractions import Fraction as F
from random import Random

import pytest

from reflekt.constructions import (
    a_permutahedron_ef,
    build_recipe,
    even_pair_chain_specs,
    i2_chain_specs,
    mgon_ef,
    parity_polytope_ef,
    sign_chain_specs,
    signing_ef,
    transposition_chain_specs,
)
from reflekt.networks import ComparatorSeq, batcher
from reflekt.numeric import DimensionError, EmptyPolyhedronError, ScaledPoint
from reflekt.oracles import (
    VertexSet,
    completion_time_vertices,
    huffman_vectors,
    mgon_orbit,
    parity_vertices,
    permutation_orbit,
    sign_flip_orbit,
)
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    PolyhedralRelation,
    _witness_blocks,
    compose_extension,
    graph_relation,
)
from reflekt.reflections import ReflectionSpec, reflection_map, reflection_relation
from reflekt.serialize import ef_from_dict, ef_to_dict
from reflekt.verify import (
    actual_sizes,
    check_affine_generators,
    check_chain_conditions,
    random_objectives,
    size_report,
    verify_projection_equality,
)


def perm3_ef():
    return a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))


class TestProjectionEquality:
    def test_permutahedron_passes(self):
        rep = verify_projection_equality(perm3_ef(), permutation_orbit((1, 2, 3)), 50, seed=7)
        assert rep.passed
        assert (rep.vertex_total, rep.vertex_passed) == (6, 6)
        assert (rep.objective_total, rep.objective_passed) == (50, 50)
        assert rep.objective_max_deviation == 0

    def test_fractional_vertices(self):
        # the vertex matrix and the witnesses carry a common denominator 6
        base = (F(1, 2), F(2, 3), F(3))
        ef = a_permutahedron_ef(HPolyhedron.point(base), 3, batcher(3))
        rep = verify_projection_equality(ef, permutation_orbit(base), 30, seed=7)
        assert rep.passed
        assert rep.witness_hits == 6
        assert rep.objective_max_deviation == 0

    def test_truncated_chain_fails(self):
        ef = perm3_ef()
        mutated = compose_extension(ef.base, ef.relations[:-1])
        rep = verify_projection_equality(mutated, permutation_orbit((1, 2, 3)), 50, seed=7)
        assert not rep.passed
        assert rep.vertex_passed < rep.vertex_total

    def test_objective_check_catches_a_larger_projection(self):
        # raising the last right-hand side keeps every witness feasible but
        # lets the projection grow past conv(V): only objectives can see it
        ef = perm3_ef()
        Q = ef.Q
        loose = HPolyhedron(Q.dim, Q.A, Q.b[:-1] + (Q.b[-1] + 1,), Q.C, Q.d)
        rep = verify_projection_equality(
            replace(ef, Q=loose), permutation_orbit((1, 2, 3)), 20, seed=7
        )
        assert (rep.vertex_total, rep.vertex_passed) == (6, 6)
        assert rep.objective_total == 20
        assert rep.objective_passed < rep.objective_total
        assert rep.objective_max_deviation > 0
        assert not rep.passed

    def test_replaced_q_gets_its_own_checker(self):
        # a copy made after certification neither shares the cached checker
        # nor parametrises the loosened Q from the original chain's steps
        ef = perm3_ef()
        V = permutation_orbit((1, 2, 3))
        assert verify_projection_equality(ef, V, 20, seed=7).passed
        Q = ef.Q
        loose = replace(ef, Q=HPolyhedron(Q.dim, Q.A, Q.b[:-1] + (Q.b[-1] + 1,), Q.C, Q.d))
        assert loose._checker is None and loose.steps is None and ef.steps is not None
        rep = verify_projection_equality(loose, V, 20, seed=7)
        assert rep.objective_passed < rep.objective_total
        assert loose._checker is not ef._checker and loose.steps is None

    def test_mgon_float_mode(self):
        rep = verify_projection_equality(mgon_ef(4), mgon_orbit(4), 25, seed=1, tol=1e-6)
        assert rep.passed
        assert float(rep.objective_max_deviation) <= 1e-6

    def test_empty_oracle_is_rejected_up_front(self):
        # conv of no points is empty: no formulation projects onto it
        for n_objectives in (0, 5):
            with pytest.raises(ValueError, match="empty vertex set"):
                verify_projection_equality(perm3_ef(), VertexSet(3, (), "exact"), n_objectives)

    @pytest.mark.parametrize("recipe, params, V", [
        ("a_permutahedron", {"n": 4}, permutation_orbit((1, 2, 3, 4))),
        ("huffman_quadratic", {"n": 5}, huffman_vectors(5)),
    ])
    def test_a_certificate_refuses_every_wrong_maximum(self, recipe, params, V, monkeypatch):
        # every other vertex: the brute-force maximum is often below the LP's,
        # and the report must be the one that Bland's rule alone gives
        half = VertexSet(V.dim, V.points[::2], "every other vertex")
        report = verify_projection_equality(build_recipe(recipe, params), half, 50, seed=7)
        assert report.lp_exact > 0 and report.lp_certified + report.lp_exact == 50
        monkeypatch.setattr("reflekt.lp.ProjectionChecker.proves_max", lambda *a: False)
        bland = verify_projection_equality(build_recipe(recipe, params), half, 50, seed=7)
        assert bland.lp_certified == 0
        assert report.to_json() == bland.to_json()

    def test_objective_count_must_be_nonnegative(self):
        V = permutation_orbit((1, 2, 3))
        with pytest.raises(ValueError, match="n_objectives"):
            verify_projection_equality(perm3_ef(), V, n_objectives=-3)
        rep = verify_projection_equality(perm3_ef(), V, n_objectives=0)
        assert rep.passed and rep.objective_total == 0

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
    def test_tolerance_must_be_nonnegative(self, tol):
        ef, V = mgon_ef(8), mgon_orbit(8)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            verify_projection_equality(ef, V, n_objectives=5, tol=tol)
        assert verify_projection_equality(perm3_ef(), permutation_orbit((1, 2, 3)), 5, tol=0).passed

    def test_deterministic_reports(self):
        a = verify_projection_equality(perm3_ef(), permutation_orbit((1, 2, 3)), 30, seed=5)
        b = verify_projection_equality(perm3_ef(), permutation_orbit((1, 2, 3)), 30, seed=5)
        assert a.to_json() == b.to_json()

    def test_report_shape(self):
        rep = verify_projection_equality(
            perm3_ef(),
            permutation_orbit((1, 2, 3)),
            10,
            seed=2,
        )
        data = rep.to_dict()
        assert data["passed"] is True
        assert "size_check" not in data
        assert data["hypothesis_checks"] == []
        assert "wall_time_s" not in data
        assert "wall_time_s" in rep.to_dict(include_timing=True)

    def test_vertex_paths_only_with_timing(self):
        ef = perm3_ef()
        bare = compose_extension(ef.base, ef.relations)
        bare.base = None  # no provenance: every vertex takes the LP
        for formulation, hits, fallbacks in ((ef, 6, 0), (bare, 0, 6)):
            rep = verify_projection_equality(
                formulation, permutation_orbit((1, 2, 3)), 5, seed=2
            )
            timed = rep.to_dict(include_timing=True)
            assert (timed["witness_hits"], timed["lp_fallbacks"]) == (hits, fallbacks)
            plain = json.loads(rep.to_json())
            assert "witness_hits" not in plain and "lp_fallbacks" not in plain
            assert plain == {k: v for k, v in timed.items() if k in plain}

    def test_lp_pivots_only_with_timing(self):
        # a formulation loaded from JSON has no witnesses, so every objective
        # falls back to Bland's rule
        ef = ef_from_dict(ef_to_dict(perm3_ef()))
        V = permutation_orbit((1, 2, 3))
        first = verify_projection_equality(ef, V, 20, seed=4)
        again = verify_projection_equality(ef, V, 20, seed=4)
        assert first.to_json() == again.to_json()
        assert "lp_pivots" not in json.loads(first.to_json())
        timed = first.to_dict(include_timing=True)
        assert timed["lp_pivots"] == first.lp_pivots > 0
        assert (timed["lp_certified"], timed["lp_exact"]) == (0, 20)
        # the cached checker factors its tableau once: one pivot per free
        # variable (the reduced system is bounded, so none is lineality)
        assert first.lp_pivots - again.lp_pivots == ef._checker.n_free
        mgon = verify_projection_equality(mgon_ef(8), mgon_orbit(8), 5, seed=1, tol=1e-6)
        assert mgon.passed and mgon.lp_pivots == 0

    def test_phases_only_with_timing(self):
        ef = build_recipe("a_permutahedron", {"n": 4})
        rep = verify_projection_equality(ef, permutation_orbit((1, 2, 3, 4)), 20, seed=7)
        # the default bytes are those of a report without per-phase timing
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == "3fe4cdac648677585ca8e7ab0ccc58b7142003f131bba5bb9cf1eb0d95f0d1a1"
        assert "phases" not in json.loads(rep.to_json())
        phases = rep.to_dict(include_timing=True)["phases"]
        assert set(phases) == {"vertex_checks_s", "objective_checks_s"}
        assert all(s >= 0 for s in phases.values())
        assert sum(phases.values()) <= rep.wall_time_s
        assert json.loads(rep.to_json(include_timing=True))["phases"] == phases


@pytest.mark.parametrize(
    "recipe, params, V",
    [
        pytest.param("huffman_quadratic", {"n": 4}, huffman_vectors(4), id="huffman_quadratic-4"),
        pytest.param("huffman_nlogn", {"n": 4}, huffman_vectors(4), id="huffman_nlogn-4"),
        pytest.param("parity", {"n": 5}, parity_vertices(5, "odd"), id="parity-5"),
        pytest.param(
            "completion_time", {"p": (1, 2, 3)}, completion_time_vertices((1, 2, 3)),
            id="completion_time-123",
        ),
        pytest.param(
            "completion_time", {"p": ("1/2", "3/2", 2)},
            completion_time_vertices(("1/2", "3/2", 2)), id="completion_time-fractional",
        ),
    ],
)
def test_graph_and_lift_chains_walk_on_integers(recipe, params, V):
    # graph and box-lift relations keep the integer preimage contract, so
    # these chains get one ScaledPoint witness per vertex and no LP
    ef = build_recipe(recipe, params)
    assert isinstance(_witness_blocks(ef, V.points[0], 1e-9), ScaledPoint)
    rep = verify_projection_equality(ef, V, 5, seed=7)
    assert rep.passed
    assert (rep.witness_hits, rep.lp_fallbacks) == (len(V), 0)


class TestZeroDimension:
    def test_no_objective_in_dimension_zero(self):
        def stop(signum, frame):
            raise TimeoutError("random_objectives(0, 1) did not return")

        old = signal.signal(signal.SIGALRM, stop)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="dimension 0"):
                random_objectives(0, 1, Random(0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert random_objectives(0, 0, Random(0)) == []

    def test_zero_dimensional_projection_is_rejected_up_front(self):
        ef = signing_ef(HPolyhedron.point(()), 0)
        with pytest.raises(DimensionError, match="projection of dimension 0"):
            verify_projection_equality(ef, sign_flip_orbit(()), 0)


class TestChainConditions:
    def test_signing_chain(self):
        base = VertexSet(2, ((F(1), F(2)),), "base")
        assert check_chain_conditions(base, sign_chain_specs(2), sign_flip_orbit((1, 2)))

    def test_parity_chain(self):
        base = VertexSet(3, ((F(-1), F(1), F(1)),), "base")
        target_pts = [
            tuple(F(s) for s in signs)
            for signs in itertools.product((1, -1), repeat=3)
            if signs.count(-1) % 2 == 1
        ]
        target = VertexSet(3, tuple(sorted(target_pts)), "odd-signs")
        assert check_chain_conditions(base, even_pair_chain_specs(3), target)

    def test_non_sorting_chain_fails(self):
        base = VertexSet(3, ((F(1), F(2), F(3)),), "base")
        chain = transposition_chain_specs(ComparatorSeq(3, ((1, 2),)))
        assert not check_chain_conditions(base, chain, permutation_orbit((1, 2, 3)))

    def test_polytope_base(self):
        # the base need not be a single point: a segment base works through in_hull
        base = VertexSet(2, ((F(1), F(2)), (F(2), F(2))), "segment")
        target_pts = set()
        for v in base.points:
            for signs in itertools.product((1, -1), repeat=2):
                target_pts.add(tuple(s * e for s, e in zip(signs, v)))
        target = VertexSet(2, tuple(sorted(target_pts)), "orbit")
        assert check_chain_conditions(base, sign_chain_specs(2), target)


class TestAffineGenerators:
    @pytest.mark.parametrize(
        "spec", [ReflectionSpec((F(1), F(-2), F(1)), F(3)), *i2_chain_specs(5)],
        ids=["exact", *(f"float_mgon5_{i}" for i in range(len(i2_chain_specs(5))))])
    def test_reflection_relation(self, spec):
        # the m-gon chain's relations run the fiber LPs on the float backend
        maps = (AffineMap.identity(spec.dim, spec.backend), reflection_map(spec))
        assert check_affine_generators(reflection_relation(spec), maps, samples=10, seed=4)

    def test_graph_relation_single_generator(self):
        f = AffineMap.from_rows([[1, 1], [0, 2]], [1, 0])
        assert check_affine_generators(graph_relation(f), (f,), samples=10, seed=4)

    def test_triangle_with_wrong_generators_fails(self):
        body = HPolyhedron.from_rows(2, ineqs=[((-1, 1), 0), ((1, 1), 2), ((0, -1), 0)])
        rel = PolyhedralRelation(1, 1, body)
        assert not check_affine_generators(rel, (AffineMap.identity(1),), samples=20, seed=4)

    def test_requires_generators(self):
        body = HPolyhedron.from_rows(2, ineqs=[((-1, 1), 0)])
        rel = PolyhedralRelation(1, 1, body)
        with pytest.raises(ValueError):
            check_affine_generators(rel, ())
        with pytest.raises(ValueError, match="samples"):
            check_affine_generators(rel, (AffineMap.identity(1),), samples=-1)


class TestSizeReport:
    def test_mgon_eight(self):
        ok, diff = size_report(mgon_ef(8), {"inequalities": 8, "reduced_variables": 4})
        assert ok, diff

    def test_parity_five(self):
        ok, diff = size_report(
            parity_polytope_ef(5, "odd"), {"inequalities": 16, "reduced_variables": 8}
        )
        assert ok, diff

    def test_signing_addition(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2), F(3))), 3)
        ok, diff = size_report(ef, {"inequalities": 6})
        assert ok, diff

    def test_mismatch_reports_diff(self):
        ok, diff = size_report(mgon_ef(8), {"inequalities": 7})
        assert not ok
        assert diff == {"inequalities": (7, 8)}

    def test_inconsistent_equations_raise(self):
        # {x : x = 0, x = 1} is empty: no reduced variable count exists
        ef = compose_extension(HPolyhedron.from_rows(1, eqs=[((1,), 0), ((1,), 1)]), [])
        with pytest.raises(EmptyPolyhedronError, match="inconsistent"):
            actual_sizes(ef)
        with pytest.raises(EmptyPolyhedronError):
            size_report(ef, {"reduced_variables": 1})


class TestMutationSensitivityCharacterization:
    """Regression guard for the verifier's sensitivity: deleting a relation
    must be caught unless the drop provably preserves the projection; the
    known projection-preserving survivor indices are pinned here."""

    def survivors(self, ef, oracle, tol=1e-9):
        out = []
        for i, rel in enumerate(ef.relations):
            if rel.n != rel.m:
                continue  # removal would break the type chain
            rels = ef.relations[:i] + ef.relations[i + 1 :]
            mutated = compose_extension(ef.base, rels)
            rep = verify_projection_equality(mutated, oracle, 40, seed=13, tol=tol)
            if rep.passed:
                out.append(i)
        return out

    def test_permutahedron_all_drops_caught(self):
        assert self.survivors(perm3_ef(), permutation_orbit((1, 2, 3))) == []

    def test_signing_all_drops_caught(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2), F(3))), 3)
        assert self.survivors(ef, sign_flip_orbit((1, 2, 3))) == []

    def test_parity_known_equivalent_drop(self):
        # dropping the first double-flip relation provably keeps the
        # projection: every vertex still reaches the base through the
        # remaining chain and the generator hull does not grow
        ef = parity_polytope_ef(3, "odd")
        from reflekt.oracles import parity_vertices

        assert self.survivors(ef, parity_vertices(3, "odd")) == [1]

    def test_mgon4_all_drops_caught(self):
        assert self.survivors(mgon_ef(4), mgon_orbit(4), tol=1e-6) == []
