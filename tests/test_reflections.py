import itertools
import random
from fractions import Fraction as F

import pytest

from reflekt.lp import OPTIMAL, solve_system
from reflekt.networks import batcher
from reflekt.numeric import EXACT, BackendError, dot, unit_vector
from reflekt.oracles import VertexSet
from reflekt.polyhedra import HPolyhedron, compose_extension, deltas
from reflekt.reflections import (
    ReflectionSpec,
    abs_vec,
    apply_preimage_chain,
    canonical_preimage,
    dn_canonical,
    even_sign_pair_specs,
    reflect_point,
    reflection_map,
    reflection_relation,
    sign_spec,
    sort_vec,
    sortabs_vec,
    transposition_spec,
)
from reflekt.constructions import (
    even_pair_chain_specs,
    sign_chain_specs,
    transposition_chain_specs,
)
from reflekt.verify import verify_projection_equality


def pinned_rows(Q, pins):
    """Q's exact rows as ``(ineqs, eqs)``, with the coordinates of the
    (index, value) pairs pinned by appended unit equations."""
    pins = [(unit_vector(i, Q.dim, EXACT), v) for i, v in pins]
    return list(zip(Q.A, Q.b)), list(zip(Q.C, Q.d)) + pins


def pinned_feasible(Q, pins):
    """Feasibility of Q with coordinates pinned by (index, value) pairs: a
    zero objective, decided in phase 1."""
    res = solve_system(Q.dim, *pinned_rows(Q, pins), (F(0),) * Q.dim)
    return res.status == OPTIMAL


def fiber_extremes(rel, x, c):
    """(max, min) of <c, y> over the fiber of ``rel`` over x, the body with
    x pinned; the min is -max <-c, y>."""
    rows = pinned_rows(rel.body, enumerate(x))
    obj = (F(0),) * rel.n + tuple(c)
    hi, lo = (solve_system(rel.body.dim, *rows, o) for o in (obj, tuple(-e for e in obj)))
    assert hi.status == OPTIMAL and lo.status == OPTIMAL
    return hi.value, -lo.value


def rand_spec(rng, n):
    while True:
        a = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        if any(a):
            return ReflectionSpec(a, F(rng.randint(-5, 5)))


def rand_point(rng, n):
    return tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))


class TestSpecInput:
    def test_exact_spec_coerces_its_input(self):
        spec = ReflectionSpec((1, -1), "1/2")
        assert (spec.a, spec.beta) == ((F(1), F(-1)), F(1, 2))
        assert all(type(e) is F for e in spec.a + (spec.beta,))
        assert reflect_point(spec, (F(1), F(0))) == (F(1, 2), F(1, 2))
        assert canonical_preimage(spec, (F(1), F(0))) == (F(1, 2), F(1, 2))
        f = reflection_map(spec)
        assert f.M == ((0, 1), (1, 0)) and f.t == (F(1, 2), F(-1, 2))
        assert all(type(e) is F for row in f.M + (f.t,) for e in row)
        # the segment from (0, 1) to its mirror image (3/2, -1/2)
        ef = compose_extension(HPolyhedron.point((0, 1)), [reflection_relation(spec)])
        V = VertexSet(2, ((F(0), F(1)), (F(3, 2), F(-1, 2))), "segment")
        report = verify_projection_equality(ef, V, 10, seed=7)
        assert report.passed and report.witness_hits == 2

    def test_float_entry_of_an_exact_spec_raises_backend_error(self):
        with pytest.raises(BackendError):
            ReflectionSpec((0.5, 1), 0)
        with pytest.raises(BackendError):
            ReflectionSpec((1, 1), 0.5)

    def test_zero_normal_is_found_after_coercion(self):
        for a in (("0", "0/3"), (0.0, -0.0)):
            with pytest.raises(ValueError, match="nonzero"):
                ReflectionSpec(a, 1, "exact" if isinstance(a[0], str) else "float")

    def test_float_spec_keeps_its_bits(self):
        a, beta = (-0.0, 0.1 + 0.2), 1 / 3
        spec = ReflectionSpec(a, beta, "float")
        assert repr((spec.a, spec.beta)) == repr((a, beta))
        assert ReflectionSpec((1, "1/2"), 0, "float").a == (1.0, 0.5)


class TestReflectPoint:
    def test_axis_hyperplane(self):
        spec = ReflectionSpec((F(1), F(0)), F(1))
        assert reflect_point(spec, (F(3), F(5))) == (F(-1), F(5))

    def test_fixes_hyperplane(self):
        spec = ReflectionSpec((F(1), F(0)), F(1))
        assert reflect_point(spec, (F(1), F(7))) == (F(1), F(7))

    def test_coordinate_swap(self):
        spec = ReflectionSpec((F(1), F(-1)), F(0))
        assert reflect_point(spec, (F(2), F(5))) == (F(5), F(2))

    def test_involution_exact(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 5)
            spec = rand_spec(rng, n)
            x = rand_point(rng, n)
            assert reflect_point(spec, reflect_point(spec, x)) == x

    def test_involution_float_drift(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(2, 4)
            a = tuple(rng.uniform(-2, 2) for _ in range(n))
            if all(abs(e) < 1e-3 for e in a):
                continue
            spec = ReflectionSpec(a, rng.uniform(-1, 1), backend="float")
            x = tuple(rng.uniform(-5, 5) for _ in range(n))
            back = reflect_point(spec, reflect_point(spec, x))
            assert max(abs(u - v) for u, v in zip(back, x)) <= 1e-12

    def test_mirror_identity_on_normal(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 5)
            spec = rand_spec(rng, n)
            x = rand_point(rng, n)
            assert dot(spec.a, reflect_point(spec, x)) == 2 * spec.beta - dot(spec.a, x)


class TestCanonicalPreimage:
    def test_flip_into_domain(self):
        spec = ReflectionSpec((F(-1), F(0)), F(0))
        assert canonical_preimage(spec, (F(-2), F(7))) == (F(2), F(7))

    def test_identity_branch(self):
        spec = ReflectionSpec((F(-1), F(0)), F(0))
        assert canonical_preimage(spec, (F(3), F(7))) == (F(3), F(7))

    def test_transposition_orders_pair(self):
        spec = transposition_spec(1, 2, 2)
        assert canonical_preimage(spec, (F(5), F(3))) == (F(3), F(5))

    def test_always_in_domain_and_fiber(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 4)
            spec = rand_spec(rng, n)
            y = rand_point(rng, n)
            x = canonical_preimage(spec, y)
            assert spec.in_domain(x)
            body = reflection_relation(spec).body
            assert body.contains(tuple(x) + tuple(y))


class TestReflectionRelation:
    def test_shape(self):
        rel = reflection_relation(ReflectionSpec((F(1), F(2), F(3)), F(1)))
        assert rel.body.n_equations == 2
        assert rel.body.n_inequalities == 2
        assert (rel.n, rel.m) == (3, 3)

    def test_deltas_are_one(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(1, 5)
            rel = reflection_relation(rand_spec(rng, n))
            assert deltas(rel) == (1, 1)

    def test_fiber_extremes_at_generators(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            spec = rand_spec(rng, n)
            rel = reflection_relation(spec)
            x = canonical_preimage(spec, rand_point(rng, n))
            refl = reflect_point(spec, x)
            for _ in range(5):
                c = rand_point(rng, n)
                vals = (dot(c, x), dot(c, refl))
                assert fiber_extremes(rel, x, c) == (max(vals), min(vals))

    def test_domain_exactness(self):
        # fiber non-empty exactly over the halfspace
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 3)
            spec = rand_spec(rng, n)
            rel = reflection_relation(spec)
            x = rand_point(rng, n)
            pins = [(i, x[i]) for i in range(n)]
            assert pinned_feasible(rel.body, pins) == spec.in_domain(x)


class TestSignRelation:
    def test_fiber_is_segment(self):
        rel = reflection_relation(sign_spec(1, 2))
        assert fiber_extremes(rel, (F(1), F(5)), (F(1), F(0))) == (1, -1)

    def test_fiber_on_hyperplane_is_point(self):
        rel = reflection_relation(sign_spec(1, 2))
        assert fiber_extremes(rel, (F(0), F(3)), (F(1), F(0))) == (0, 0)

    def test_one_dim_segment_and_empty_fiber(self):
        rel = reflection_relation(sign_spec(1, 1))
        assert fiber_extremes(rel, (F(2),), (F(1),)) == (2, -2)
        assert not pinned_feasible(rel.body, [(0, F(-2))])

    def test_preimage_takes_absolute_value(self):
        spec = sign_spec(1, 2)
        assert canonical_preimage(spec, (F(-4), F(2))) == (F(4), F(2))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            reflection_relation(sign_spec(3, 2))


class TestTranspositionRelation:
    def test_fiber_over_ordered_point(self):
        rel = reflection_relation(transposition_spec(1, 2, 2))
        assert fiber_extremes(rel, (F(1), F(3)), (F(1), F(0))) == (3, 1)

    def test_tie_is_fixed_point(self):
        rel = reflection_relation(transposition_spec(1, 2, 2))
        assert fiber_extremes(rel, (F(2), F(2)), (F(1), F(0))) == (2, 2)

    def test_preimage_sorts_two_entries(self):
        spec = transposition_spec(1, 2, 2)
        assert canonical_preimage(spec, (F(7), F(4))) == (F(4), F(7))

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            reflection_relation(transposition_spec(2, 2, 3))


class TestEvenSignPair:
    def test_pair_preimage_example(self):
        specs = even_sign_pair_specs(1, 2, 2)
        out = apply_preimage_chain(specs, (F(1), F(-2)))
        assert out == (F(-1), F(2))

    def test_canonical_output_property(self):
        rng = random.Random(7)
        specs = even_sign_pair_specs(1, 2, 3)
        for _ in range(50):
            y = rand_point(rng, 3)
            out = apply_preimage_chain(specs, y)
            assert abs(out[0]) <= out[1]

    def test_already_canonical(self):
        specs = even_sign_pair_specs(1, 2, 2)
        assert apply_preimage_chain(specs, (F(1), F(2))) == (F(1), F(2))

    def test_relations_expose_both_reflections(self):
        r1, r2 = map(reflection_relation, even_sign_pair_specs(1, 2, 2))
        assert r1.body.n_inequalities == 2
        assert r2.body.n_inequalities == 2


class TestPreimageChains:
    def test_empty_chain(self):
        assert apply_preimage_chain([], (F(3), F(1))) == (F(3), F(1))

    def test_sign_chain_is_componentwise_abs(self):
        rng = random.Random(8)
        chain = sign_chain_specs(4)
        for _ in range(40):
            y = rand_point(rng, 4)
            assert apply_preimage_chain(chain, y) == abs_vec(y)

    def test_network_chain_sorts(self):
        chain = transposition_chain_specs(batcher(4))
        rng = random.Random(9)
        for _ in range(40):
            y = rand_point(rng, 4)
            assert apply_preimage_chain(chain, y) == sort_vec(y)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_b_chain_is_sortabs_exhaustive(self, n):
        generic = tuple(F(k + 1) for k in range(n))
        chain = transposition_chain_specs(batcher(n)) + sign_chain_specs(n)
        for perm in itertools.permutations(generic):
            for signs in itertools.product((1, -1), repeat=n):
                w = tuple(s * e for s, e in zip(signs, perm))
                assert apply_preimage_chain(chain, w) == sortabs_vec(w)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_d_chain_is_dn_canonical_exhaustive(self, n):
        generic = tuple(F(k + 1) for k in range(n))
        chain = transposition_chain_specs(batcher(n)) + even_pair_chain_specs(n)
        for perm in itertools.permutations(generic):
            for signs in itertools.product((1, -1), repeat=n):
                w = tuple(s * e for s, e in zip(signs, perm))
                assert apply_preimage_chain(chain, w) == dn_canonical(w)


class TestCanonicalForms:
    def test_sort(self):
        assert sort_vec((3, 1, 2)) == (1, 2, 3)

    def test_sortabs(self):
        assert sortabs_vec((-3, 1, -2)) == (1, 2, 3)

    def test_dn_even_negatives(self):
        assert dn_canonical((F(-3), F(1), F(-2))) == (F(1), F(2), F(3))

    def test_dn_odd_negatives(self):
        assert dn_canonical((F(3), F(1), F(-2))) == (F(-1), F(2), F(3))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            ReflectionSpec((F(0), F(0)), F(1))
