import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction as F
from operator import mul
from random import Random

import pytest

from reflekt.numeric import int_scale
from reflekt.oracles import (
    VertexSet,
    completion_time_vertices,
    even_signed_orbit,
    huffman_profiles,
    huffman_vectors,
    mgon_orbit,
    parity_vertices,
    permutation_orbit,
    sign_flip_orbit,
    signed_orbit,
)


class TestPermutationOrbit:
    def test_distinct_entries(self):
        assert len(permutation_orbit((1, 2, 3))) == 6

    def test_multiset_symmetry(self):
        assert len(permutation_orbit((1, 2, 2))) == 3

    def test_constant_vector(self):
        assert len(permutation_orbit((5, 5, 5))) == 1

    def test_size_formula(self):
        # n!/prod(multiplicities!)
        assert len(permutation_orbit((1, 1, 2, 3))) == math.factorial(4) // 2
        assert len(permutation_orbit((1, 1, 2, 2))) == 6

    def test_cap(self):
        with pytest.raises(ValueError):
            permutation_orbit(tuple(range(9)))


class TestSignedOrbits:
    def test_signed_count(self):
        assert len(signed_orbit((1, 2))) == 8

    def test_even_signed_points(self):
        pts = even_signed_orbit((1, 2)).points
        expect = {(F(1), F(2)), (F(2), F(1)), (F(-1), F(-2)), (F(-2), F(-1))}
        assert set(pts) == expect

    def test_origin(self):
        assert len(signed_orbit((0, 0))) == 1

    def test_generic_size_identities(self):
        for n in (2, 3, 4):
            v = tuple(range(1, n + 1))
            assert len(signed_orbit(v)) == 2 ** n * math.factorial(n)
            assert len(even_signed_orbit(v)) == 2 ** (n - 1) * math.factorial(n)

    def test_sign_flip_orbit(self):
        assert len(sign_flip_orbit((1, 2, 3))) == 8
        assert len(sign_flip_orbit((0, 2))) == 2


class TestMaximisers:
    @pytest.mark.parametrize("orbit, base", [
        (permutation_orbit, (1, 1, 2, 3)),
        (permutation_orbit, (0, 1, 1, 2, 5)),
        (signed_orbit, (0, 1, 2)),
        (signed_orbit, (1, 2, 3)),
        (signed_orbit, (0, 1, 1, 3, 4)),
        (even_signed_orbit, (1, 2, 3)),
        (even_signed_orbit, (0, 1, 2)),
        (even_signed_orbit, (1, 1, 2, 4)),
        (even_signed_orbit, (-1, 1, 2, 2, 3)),
    ])
    def test_maximiser_attains_the_maximum_over_the_orbit(self, orbit, base):
        # entries in -2..2 give ties and zeros in c; the maximiser starts from
        # several points of the orbit, as Fractions and as the verifier's ints
        V = orbit(base)
        rows = [tuple(map(int, v)) for v in V.points]  # a Fraction hashes as its int
        points = set(rows)
        rng = Random(len(V))
        starts = [V.points[0], V.points[-1], *rng.sample(V.points, 3)]
        for _ in range(200):
            c = tuple(rng.randint(-2, 2) for _ in range(V.dim))
            best = max(sum(map(mul, c, v)) for v in rows)
            for v in starts:
                for row in (v, tuple(int(e) for e in v)):
                    x = V.maximiser(c, row)
                    assert x in points, (c, row, x)
                    assert sum(map(mul, c, x)) == best, (c, row, x)

    def test_even_signed_parity_fix_flips_the_least_weight(self):
        V = even_signed_orbit((1, 2, 3))
        # signs from c would give three negatives: flip the entry at |c_i| = 1
        assert V.maximiser((-3, -2, -1), (1, 2, 3)) == (-3, -2, 1)
        # a zero c_i absorbs the sign at no cost
        assert V.maximiser((-3, -2, 0), (1, 2, 3)) in {(-3, -2, 1), (-3, -2, -1)}

    def test_the_maximiser_is_no_part_of_equality_or_repr(self):
        V = permutation_orbit((1, 2))
        assert V == VertexSet(V.dim, V.points, V.label)
        assert "maximiser" not in repr(V)


# Each exact oracle on bases with zeros, repeats and fractions; the
# maximiser is checked on V's integer rows, as the verifier asks it.
_EXACT_ORACLES = [
    *[pytest.param(parity_vertices, (n, parity), id=f"parity-{n}-{parity}")
      for n in range(1, 9) for parity in ("odd", "even")],
    *[pytest.param(huffman_vectors, (n,), id=f"huffman-{n}") for n in range(2, 9)],
    *[pytest.param(completion_time_vertices, (p,), id=f"completion-{i}") for i, p in enumerate([
        (0, 5), (2, 0, F(3, 2)), (0, 0, 1, F(1, 2)), (F(1, 3), 0, 2, 0, F(5, 2)),
        (1, 2, 3, 4), (F(1, 2), F(1, 3), F(1, 6)), (0, 0, 0),
    ])],
    *[pytest.param(sign_flip_orbit, (v,), id=f"sign_flip-{i}") for i, v in enumerate([
        (0, 2, 3), (1, 0, 0, F(-1, 2)), (0,), (-2, 1, 1, 0, 3),
    ])],
    pytest.param(permutation_orbit, ((0, F(1, 2), F(1, 2), 2),), id="permutation"),
    pytest.param(signed_orbit, ((0, F(-1, 3), 2),), id="signed"),
    pytest.param(even_signed_orbit, ((F(1, 4), F(-1, 2), 2),), id="even_signed"),
]


class TestIntegerRows:
    @pytest.mark.parametrize("oracle, args", _EXACT_ORACLES)
    def test_the_maximiser_attains_the_maximum_over_V(self, oracle, args):
        # entries in -3..3 give ties and zeros in c
        V = oracle(*args)
        rows, _ = V.scaled
        members = set(rows)
        rng = Random(len(V))
        starts = rng.sample(rows, min(3, len(rows)))
        for _ in range(200):
            c = tuple(rng.randint(-3, 3) for _ in range(V.dim))
            best = max(sum(map(mul, c, row)) for row in rows)
            for v in starts:
                x = V.maximiser(c, v)
                assert x in members, (c, v, x)
                assert sum(map(mul, c, x)) == best, (c, v, x)

    @pytest.mark.parametrize("oracle, args", _EXACT_ORACLES)
    def test_the_rows_are_the_points_scaled(self, oracle, args):
        V = oracle(*args)
        rows, den = V.scaled
        flat, want_den = int_scale(e for p in V.points for e in p)
        assert den == want_den
        assert [e for row in rows for e in row] == flat
        assert all(len(row) == V.dim and all(type(e) is int for e in row) for row in rows)

    def test_smith_rule_reads_the_times_not_the_vertex(self):
        # jobs 1 and 2 finish together at the maximum (0, 5, 5, 3), so its
        # differences cannot tell which of them takes time 2: p is the oracle's
        V = completion_time_vertices((0, 2, 0, 3))
        rows, _ = V.scaled
        c = (-1, 4, 1, 2)
        want = max(rows, key=lambda row: sum(map(mul, c, row)))
        assert want == (0, 5, 5, 3)
        assert {V.maximiser(c, v) for v in rows} == {want}

    def test_a_built_or_replaced_set_has_no_rows(self):
        V = permutation_orbit((1, 2, 2))
        assert replace(V, points=V.points[:1]).scaled is None
        assert VertexSet(V.dim, V.points, V.label).scaled is None
        assert mgon_orbit(5).scaled is None
        assert V == VertexSet(V.dim, V.points, V.label)
        assert "scaled" not in repr(V)


class TestMgonOrbit:
    def test_square(self):
        pts = mgon_orbit(4).points
        want = {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
        assert {(round(x, 9), round(y, 9)) for x, y in pts} == want

    def test_triangle(self):
        pts = sorted(mgon_orbit(3).points)
        assert any(abs(x - 1) < 1e-12 and abs(y) < 1e-12 for x, y in pts)
        assert any(abs(x + 0.5) < 1e-12 and abs(y - math.sqrt(3) / 2) < 1e-12 for x, y in pts)

    def test_hexagon_adjacent_dot(self):
        pts = mgon_orbit(6).points
        assert len(pts) == 6
        # adjacent vertices of the unit hexagon have inner product cos(60) = 1/2
        ordered = sorted(pts, key=lambda p: math.atan2(p[1], p[0]))
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            assert abs(a[0] * b[0] + a[1] * b[1] - 0.5) < 1e-9

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            mgon_orbit(2)


class TestHuffman:
    def test_two_leaves(self):
        assert huffman_vectors(2).points == ((F(1), F(1)),)

    def test_three_leaves(self):
        assert set(huffman_vectors(3).points) == {
            (F(1), F(2), F(2)), (F(2), F(1), F(2)), (F(2), F(2), F(1)),
        }

    def test_four_leaves_count(self):
        assert len(huffman_vectors(4)) == 13

    @pytest.mark.parametrize("n", range(2, 8))
    def test_depth_weight_identity(self, n):
        # every depth vector satisfies sum(2^-d_i) = 1 exactly
        for v in huffman_vectors(n).points:
            assert sum(F(1, 2 ** int(d)) for d in v) == 1

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_closure_properties(self, n):
        current = set(huffman_vectors(n).points)
        smaller = set(huffman_vectors(n - 1).points)
        for v in current:
            top = max(v)
            # the maximum occurs at least twice
            assert sum(1 for e in v if e == top) >= 2
            # merging two deepest leaves lands one level down
            idx = [i for i, e in enumerate(v) if e == top][:2]
            i, j = idx
            merged = tuple(
                (e - 1 if k == i else e) for k, e in enumerate(v) if k != j
            )
            assert merged in smaller
        for w in smaller:
            # splitting the last leaf lands one level up
            lifted = w[:-1] + (w[-1] + 1, w[-1] + 1)
            assert lifted in current

    def test_permutation_closure(self):
        import itertools

        pts = set(huffman_vectors(4).points)
        for v in pts:
            for perm in itertools.permutations(v):
                assert perm in pts

    @pytest.mark.parametrize("n, size, digest", [
        (2, 1, "3cfe50c296a013debb3cbb16608a79467999408fdd999dcd427ca91dbf1313fb"),
        (3, 3, "193c668f73199ec76fcaee7d81bcf68e47c79ba437e5479f85378decb55ef22a"),
        (4, 13, "091efa405692cc8249d949262ee1896f9e967166daadd8c6f9e3a415234a7d27"),
        (5, 75, "9da52a65ccd1efebe874d84491b0c7e20fe804f4ce853619ecfc90b3838999bf"),
        (6, 525, "70ef0ddab868abce0c8270d2246476ffcb2d0ebbe9a031a3dca1164c2eacaf07"),
        (7, 4347, "68f5569e13824d2791e3bbebe454e953287143fa11e543987cb447b05d31cea2"),
        (8, 41245, "628af330e711287c67b812bed1f49f1ac1ff93026708728f2872babd590475bf"),
    ])
    def test_vectors_match_the_fraction_enumeration(self, n, size, digest):
        # sha256 of the VertexSet fields as the Fraction-profile enumeration
        # (permute Fraction depths, sort the set) built them: same points,
        # order, Fraction entries and label
        V = huffman_vectors(n)
        assert len(V) == size
        fields = repr((V.dim, V.points, V.label, V.backend)).encode()
        assert hashlib.sha256(fields).hexdigest() == digest

    def test_profiles_are_sorted_multisets(self):
        for profile in huffman_profiles(6):
            assert list(profile) == sorted(profile)

    def test_cap(self):
        with pytest.raises(ValueError):
            huffman_vectors(10)


class TestParity:
    def test_two_odd(self):
        assert set(parity_vertices(2, "odd").points) == {(F(1), F(0)), (F(0), F(1))}

    def test_three_odd_count(self):
        assert len(parity_vertices(3, "odd")) == 4

    def test_three_even_includes_origin(self):
        pts = set(parity_vertices(3, "even").points)
        assert len(pts) == 4
        assert (F(0), F(0), F(0)) in pts

    @pytest.mark.parametrize("n", range(2, 9))
    def test_half_of_cube(self, n):
        assert len(parity_vertices(n, "odd")) == 2 ** (n - 1)
        assert len(parity_vertices(n, "even")) == 2 ** (n - 1)

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            parity_vertices(3, "mixed")


class TestCompletionTimes:
    def test_two_jobs(self):
        assert set(completion_time_vertices((1, 2)).points) == {
            (F(1), F(3)), (F(3), F(2)),
        }

    def test_unit_times_give_permutations(self):
        assert set(completion_time_vertices((1, 1, 1)).points) == set(
            permutation_orbit((1, 2, 3)).points
        )

    def test_zero_job(self):
        assert set(completion_time_vertices((0, 5)).points) == {
            (F(0), F(5)), (F(5), F(5)),
        }

    def test_deterministic_order(self):
        a = completion_time_vertices((1, 2, 3)).points
        b = completion_time_vertices((1, 2, 3)).points
        assert a == b


def _fraction_reference(name, *args):
    """The Fraction enumeration the integer oracles replaced: every point
    built from Fraction entries, then ``sorted(set(...))``."""
    if name == "parity_vertices":
        n, parity = args
        return sorted({tuple(map(F, bits)) for bits in itertools.product((0, 1), repeat=n)
                       if sum(bits) % 2 == (parity == "odd")})
    if name == "huffman_vectors":
        (n,) = args  # Kraft's equality holds exactly for the full binary trees
        return sorted(d for d in itertools.product(map(F, range(1, n)), repeat=n)
                      if sum(F(1, 2 ** int(e)) for e in d) == 1)
    v = tuple(map(F, args[0]))
    n = len(v)
    if name == "completion_time_vertices":
        pts = set()
        for order in itertools.permutations(range(n)):
            c, cum = [F(0)] * n, F(0)
            for job in order:
                cum += v[job]
                c[job] = cum
            pts.add(tuple(c))
        return sorted(pts)
    perms = [v] if name == "sign_flip_orbit" else list(itertools.permutations(v))
    signs = list(itertools.product((1, -1), repeat=n))
    if name == "permutation_orbit":
        signs = [(1,) * n]
    if name == "even_signed_orbit":
        signs = [s for s in signs if s.count(-1) % 2 == 0]
    return sorted({tuple(map(mul, s, p)) for p in perms for s in signs})


_BASES = [
    (F(1, 2), 0, 0, F(-3, 4)),
    (1, 1, 2),
    (-1, 0, 1),
    (-2, 1, 3),
    (F(1, 3), F(-1, 6), F(1, 3), 2),
    (0, 0),
    (F(7, 5), F(-7, 5), F(7, 5)),
]


class TestFractionReference:
    @pytest.mark.parametrize("base", _BASES)
    @pytest.mark.parametrize("oracle", [
        permutation_orbit,
        signed_orbit,
        even_signed_orbit,
        sign_flip_orbit,
        completion_time_vertices,
    ])
    def test_orbits_match_the_fraction_enumeration(self, oracle, base):
        V = oracle(base)
        want = _fraction_reference(oracle.__name__, base)
        assert V.points == tuple(want)
        assert all(type(e) is F for p in V.points for e in p)
        label = "(" + ",".join(str(F(e)) for e in base) + ")"
        assert (V.dim, V.label, V.backend) == (len(base), oracle.__name__ + label, "exact")
        # Smith's rule needs nonnegative times, as the completion_time recipe does
        negative_time = oracle is completion_time_vertices and min(base) < 0
        assert (V.maximiser is None) == negative_time
        if V.maximiser:
            rows, den = V.scaled
            rng = Random(len(V))
            for _ in range(20):
                c = tuple(rng.randint(-2, 2) for _ in base)
                x = V.maximiser(c, rng.choice(rows))
                assert tuple(F(e, den) for e in x) in want
                assert F(sum(map(mul, c, x)), den) == max(sum(map(mul, c, w)) for w in want)

    @pytest.mark.parametrize("p", [(0, 5), (2, 0, F(3, 2)), (0, 0, 1, F(1, 2))])
    def test_completion_times_with_a_zero_job(self, p):
        V = completion_time_vertices(p)
        assert V.points == tuple(_fraction_reference("completion_time_vertices", p))
        assert all(type(e) is F for q in V.points for e in q)

    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_parity_matches_the_fraction_enumeration(self, n, parity):
        V = parity_vertices(n, parity)
        assert V.points == tuple(_fraction_reference("parity_vertices", n, parity))
        assert all(type(e) is F for p in V.points for e in p)
        assert (V.dim, V.label) == (n, f"parity_vertices({n},{parity})")
        assert V.maximiser is not None

    @pytest.mark.parametrize("n", range(2, 7))
    def test_huffman_matches_the_fraction_enumeration(self, n):
        V = huffman_vectors(n)
        want = _fraction_reference("huffman_vectors", n)
        assert V.points == tuple(want)
        assert all(type(e) is F for p in V.points for e in p)
        assert sorted({tuple(sorted(map(int, d))) for d in want}) == huffman_profiles(n)
