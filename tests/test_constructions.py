import math
from fractions import Fraction as F

import pytest

from reflekt import reflections
from reflekt.constructions import (
    RECIPES,
    a_permutahedron_ef,
    b_permutahedron_ef,
    build_recipe,
    ceil_log2,
    completion_time_ef,
    d_permutahedron_ef,
    expected_ledger,
    huffman_ef_nlogn,
    huffman_ef_quadratic,
    huffman_pair_property,
    i2_chain_specs,
    i2_permutahedron_ef,
    mgon_ef,
    parity_polytope_ef,
    signing_ef,
)
from reflekt.networks import ComparatorSeq, batcher, double_bubble_seq, insertion_network, stride_seq
from reflekt.numeric import FLOAT, BackendError
from reflekt.oracles import (
    VertexSet,
    completion_time_vertices,
    even_signed_orbit,
    huffman_vectors,
    mgon_orbit,
    parity_vertices,
    permutation_orbit,
    sign_flip_orbit,
    signed_orbit,
)
from reflekt.polyhedra import HPolyhedron, point_in_projection, projection_checker
from reflekt.verify import size_report, verify_projection_equality


def assert_equality(ef, oracle, seed=0, n_obj=30, tol=1e-9):
    rep = verify_projection_equality(ef, oracle, n_objectives=n_obj, seed=seed, tol=tol)
    assert rep.passed, rep.to_text()
    return rep


class TestSigning:
    def test_point_gives_rectangle(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        assert_equality(ef, sign_flip_orbit((1, 2)))

    def test_simplex_gives_cross_polytope(self):
        simplex = HPolyhedron.from_rows(
            3,
            ineqs=[((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0)],
            eqs=[((1, 1, 1), 1)],
        )
        ef = signing_ef(simplex, 3)
        pts = [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        ]
        oracle = VertexSet(3, tuple(tuple(F(e) for e in p) for p in pts), "cross3")
        assert_equality(ef, oracle, n_obj=40)
        # base description had 3 inequalities; the chain adds 2n
        assert ef.ledger.inequalities == 3 + 2 * 3

    def test_ledger_formula(self):
        for n in (2, 3, 4):
            ef = signing_ef(HPolyhedron.point(tuple(F(k + 1) for k in range(n))), n)
            assert ef.ledger.inequalities == 2 * n

    def test_float_box_base_rejected(self):
        box = HPolyhedron.box((0.0, 0.0), (1.0, 2.0), FLOAT)
        with pytest.raises(BackendError, match="base must be exact"):
            signing_ef(box, 2)

    def test_non_canonical_point_base_rejected(self):
        # (-1, 2) is not its own |.|: it used to build and verify 0/4 vertices
        with pytest.raises(ValueError, match="not in canonical form"):
            build_recipe("signing", {"n": 2, "base": (-1, 2)})
        build_recipe("signing", {"n": 2, "base": (0, 2)})


class TestMgon:
    @pytest.mark.parametrize("m", (3, 4, 5, 8, 13))
    def test_projection_and_sizes(self, m):
        ef = mgon_ef(m)
        rep = verify_projection_equality(ef, mgon_orbit(m), n_objectives=25, seed=m, tol=1e-6)
        assert rep.passed, rep.to_text()
        ok, diff = size_report(ef, expected_ledger("mgon", {"m": m}))
        assert ok, diff

    def test_m8_counts(self):
        ef = mgon_ef(8)
        ok, diff = size_report(ef, {"inequalities": 8, "reduced_variables": 4})
        assert ok, diff

    def test_m3_counts(self):
        assert mgon_ef(3).ledger.inequalities == 6

    def test_m4_square_extreme_points(self):
        ef = mgon_ef(4)
        for v in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            assert point_in_projection(ef, v, tol=1e-9)
        assert not point_in_projection(ef, (0.9, 0.9), tol=1e-9)

    def test_chain_angles_double(self):
        specs = i2_chain_specs(8)
        assert len(specs) == ceil_log2(8) + 1
        # normals are (-sin phi, cos phi) at phi = pi/8, pi/4, pi/2, pi
        assert abs(specs[0].a[0] + math.sin(math.pi / 8)) < 1e-12
        assert abs(specs[-1].a[1] + 1.0) < 1e-12

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            mgon_ef(2)


class TestI2Permutahedron:
    def test_point_base_matches_mgon(self):
        ef = i2_permutahedron_ef(HPolyhedron.point((1.0, 0.0), FLOAT), 6)
        assert_equality(ef, mgon_orbit(6), tol=1e-6)

    def test_segment_base_gives_double_gon(self):
        m = 4
        p2 = (math.cos(math.pi / m), math.sin(math.pi / m))
        d = (p2[0] - 1.0, p2[1])
        normal = (-d[1], d[0])
        c = normal[0] * 1.0
        lo = min(d[0] * 1.0, d[0] * p2[0] + d[1] * p2[1])
        hi = max(d[0] * 1.0, d[0] * p2[0] + d[1] * p2[1])
        segment = HPolyhedron.from_rows(
            2,
            ineqs=[(d, hi), ((-d[0], -d[1]), -lo)],
            eqs=[(normal, c)],
            backend=FLOAT,
        )
        ef = i2_permutahedron_ef(segment, m)
        # the orbit of both endpoints under the m=4 symmetries is the octagon
        assert_equality(ef, mgon_orbit(2 * m), tol=1e-6)

    def test_exact_backend_rejected(self):
        with pytest.raises(BackendError):
            i2_permutahedron_ef(HPolyhedron.point((F(1), F(0))), 4)

    def test_non_canonical_point_base_rejected(self):
        with pytest.raises(ValueError, match="not in canonical form"):
            build_recipe("i2_permutahedron", {"m": 5, "base": (0, 1)})
        for m in range(3, 65):
            i2_permutahedron_ef(HPolyhedron.point((1.0, 0.0), FLOAT), m)


class TestAPermutahedron:
    def test_permutahedron_three(self):
        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        assert_equality(ef, permutation_orbit((1, 2, 3)), n_obj=50)

    def test_sorted_alignment_maximum(self):
        ef = a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        checker = projection_checker(ef)
        status, value = checker.maximize_projected((F(1), F(2), F(3)))
        assert (status, value) == ("optimal", F(14))

    def test_ledger_counts_network(self):
        for n in (3, 4, 5):
            net = batcher(n)
            ef = a_permutahedron_ef(
                HPolyhedron.point(tuple(F(k + 1) for k in range(n))), n, net
            )
            assert ef.ledger.inequalities == 2 * len(net)

    def test_insertion_network_cross_validation(self):
        ef = a_permutahedron_ef(
            HPolyhedron.point((F(1), F(2), F(3), F(4))), 4, insertion_network(4)
        )
        assert_equality(ef, permutation_orbit((1, 2, 3, 4)), n_obj=40)

    def test_float_point_base_rejected(self):
        # only the dihedral chain is float; an exact chain takes an exact base
        with pytest.raises(BackendError, match="base must be exact"):
            a_permutahedron_ef(HPolyhedron.point((1.0, 2.0, 3.0), FLOAT), 3, batcher(3))

    def test_invalid_network_rejected(self):
        with pytest.raises(ValueError):
            a_permutahedron_ef(
                HPolyhedron.point((F(1), F(2), F(3))), 3, ComparatorSeq(3, ((1, 2),))
            )

    def test_non_canonical_point_base_rejected(self):
        # a one-point base must be its own canonical form for the chain
        for recipe, base in (
            ("a_permutahedron", (3, 1, 2)),
            ("b_permutahedron", (1, -2, 3)),
            ("b_permutahedron", (2, 1, 3)),
            ("d_permutahedron", (2, 1, 3)),
            ("d_permutahedron", (-2, 1, 3)),
        ):
            with pytest.raises(ValueError, match="not in canonical form"):
                build_recipe(recipe, {"n": 3, "base": base})
        for recipe, base in (
            ("a_permutahedron", (1, 1, 4)),
            ("b_permutahedron", (0, 1, 2)),
            ("d_permutahedron", (-1, 2, 3)),
        ):
            build_recipe(recipe, {"n": 3, "base": base})


class TestBPermutahedron:
    def test_two_dim_orbit(self):
        ef = b_permutahedron_ef(HPolyhedron.point((F(1), F(2))), 2, batcher(2))
        oracle = signed_orbit((1, 2))
        assert len(oracle) == 8
        assert_equality(ef, oracle, n_obj=40)

    def test_origin_collapses(self):
        ef = b_permutahedron_ef(HPolyhedron.point((F(0), F(0))), 2, batcher(2))
        oracle = VertexSet(2, ((F(0), F(0)),), "origin")
        assert_equality(ef, oracle)

    def test_ledger(self):
        n = 3
        net = batcher(n)
        ef = b_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), n, net)
        assert ef.ledger.inequalities == 2 * len(net) + 2 * n


class TestDPermutahedron:
    def test_empty_network_two_dim(self):
        ef = d_permutahedron_ef(
            HPolyhedron.point((F(-1), F(1))), 2, ComparatorSeq(2, ())
        )
        oracle = VertexSet(2, ((F(-1), F(1)), (F(1), F(-1))), "seg")
        assert_equality(ef, oracle)

    def test_three_dim_orbit(self):
        ef = d_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))
        oracle = even_signed_orbit((1, 2, 3))
        assert len(oracle) == 2 ** 2 * 6
        assert_equality(ef, oracle, n_obj=40)

    def test_ledger(self):
        n = 3
        net = batcher(n)
        ef = d_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), n, net)
        assert ef.ledger.inequalities == 2 * len(net) + 4 * (n - 1)


class TestParity:
    def test_three_odd_vertices(self):
        oracle = parity_vertices(3, "odd")
        assert set(oracle.points) == {
            (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
            (F(1), F(1), F(1)),
        }
        ef = parity_polytope_ef(3, "odd")
        assert_equality(ef, oracle)
        assert ef.ledger.inequalities == 8

    def test_two_odd_segment(self):
        assert_equality(parity_polytope_ef(2, "odd"), parity_vertices(2, "odd"))

    @pytest.mark.parametrize("n,parity", [(4, "odd"), (4, "even"), (5, "even")])
    def test_sizes(self, n, parity):
        ef = parity_polytope_ef(n, parity)
        ok, diff = size_report(
            ef, {"inequalities": 4 * (n - 1), "reduced_variables": 2 * (n - 1)}
        )
        assert ok, diff

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            parity_polytope_ef(1, "odd")


class TestHuffman:
    def test_three_leaves(self):
        ef = huffman_ef_quadratic(3)
        oracle = huffman_vectors(3)
        assert len(oracle) == 3
        assert_equality(ef, oracle)

    def test_four_leaves(self):
        ef = huffman_ef_quadratic(4)
        oracle = huffman_vectors(4)
        assert len(oracle) == 13
        assert_equality(ef, oracle, n_obj=40)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_quadratic_inequality_count(self, n):
        ef = huffman_ef_quadratic(n)
        assert ef.ledger.inequalities == sum(2 * (2 * k - 3) for k in range(3, n + 1))

    def test_nlogn_matches_oracle(self):
        for n in (4, 5):
            assert_equality(huffman_ef_nlogn(n), huffman_vectors(n), n_obj=30)

    def test_pair_property_small(self):
        for n in (4, 5):
            net = batcher(n)
            level = lambda k, _n=n, _net=net: _net if k == _n else stride_seq(k)
            for v in huffman_vectors(n).points:
                assert huffman_pair_property(v, level)
                assert huffman_pair_property(v, double_bubble_seq)

    def test_trivial_base(self):
        ef = huffman_ef_quadratic(2)
        assert_equality(ef, huffman_vectors(2))


class TestCompletionTime:
    def test_two_jobs(self):
        ef = completion_time_ef((F(1), F(2)))
        assert_equality(ef, completion_time_vertices((1, 2)))

    def test_unit_times_give_permutahedron(self):
        ef = completion_time_ef((F(1), F(1), F(1)))
        assert_equality(ef, permutation_orbit((1, 2, 3)), n_obj=40)

    def test_cube_dimension(self):
        for n in (2, 3, 4):
            p = tuple(F(k + 1) for k in range(n))
            ef = completion_time_ef(p)
            ok, diff = size_report(
                ef,
                {
                    "inequalities": n * (n - 1),
                    "reduced_variables": n * (n - 1) // 2,
                },
            )
            assert ok, diff

    def test_zero_times_allowed(self):
        ef = completion_time_ef((F(0), F(5)))
        assert_equality(ef, completion_time_vertices((0, 5)))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            completion_time_ef((F(-1), F(2)))


class TestRecipes:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("mgon", {"m": 8}),
            ("signing", {"n": 3}),
            ("a_permutahedron", {"n": 4}),
            ("b_permutahedron", {"n": 3}),
            ("d_permutahedron", {"n": 3}),
            ("parity", {"n": 5, "parity": "odd"}),
            ("huffman_quadratic", {"n": 5}),
            ("huffman_nlogn", {"n": 5}),
            ("completion_time", {"p": [1, 2, 3]}),
        ],
    )
    def test_golden_size_table(self, name, params):
        ef = build_recipe(name, params)
        ok, diff = size_report(ef, expected_ledger(name, params))
        assert ok, (name, diff)

    def test_insertion_network_variant(self):
        ef = build_recipe("a_permutahedron", {"n": 4, "network": "insertion"})
        assert ef.ledger.inequalities == 2 * (4 * 3 // 2)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError):
            build_recipe("dodecahedron", {})

    def test_missing_parameter(self):
        with pytest.raises(KeyError):
            build_recipe("mgon", {})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: a_permutahedron_ef(HPolyhedron.point((1.0, 2.0, 3.0), FLOAT), 3,
                                       ComparatorSeq(3, ())),
            lambda: a_permutahedron_ef(HPolyhedron.point((1.0,), FLOAT), 1, batcher(1)),
            lambda: b_permutahedron_ef(HPolyhedron.point((1.0,), FLOAT), 1, batcher(1)),
            lambda: d_permutahedron_ef(HPolyhedron.point((1.0, 2.0), FLOAT), 2, batcher(2)),
            lambda: signing_ef(HPolyhedron.point((), FLOAT), 0),
        ],
        ids=["a-empty-net", "a-n1", "b-n1", "d-n2", "signing-n0"],
    )
    def test_exact_builder_rejects_float_base_whatever_its_chain(self, build):
        with pytest.raises(BackendError, match="base must be exact"):
            build()

    def test_no_recipe_builds_a_reflection_map(self, monkeypatch):
        # a relation is its body and its canonical preimage; generator maps
        # are built only by callers that check them
        def refuse(spec):
            raise AssertionError("reflection_map called while building")

        monkeypatch.setattr(reflections, "reflection_map", refuse)
        smallest = {
            "signing": {"n": 2},
            "mgon": {"m": 3},
            "i2_permutahedron": {"m": 3},
            "a_permutahedron": {"n": 3},
            "b_permutahedron": {"n": 3},
            "d_permutahedron": {"n": 3},
            "parity": {"n": 2, "parity": "odd"},
            "huffman_quadratic": {"n": 3},
            "huffman_nlogn": {"n": 4},
            "completion_time": {"p": [1, 2, 3]},
        }
        assert sorted(smallest) == sorted(RECIPES)
        for name in RECIPES:
            assert build_recipe(name, smallest[name]).relations, name
