"""Acceptance suite: every headline size formula and projection-equality
claim, reproduced at desk scale with stated tolerances and budgets.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success).  Exact-backend criteria run at zero tolerance.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

from reflekt.constructions import (
    a_permutahedron_ef,
    b_permutahedron_ef,
    ceil_log2,
    completion_time_ef,
    d_permutahedron_ef,
    huffman_ef_nlogn,
    huffman_ef_quadratic,
    mgon_ef,
    parity_polytope_ef,
    signing_ef,
)
from reflekt.networks import batcher, is_sorting_network, stride_seq
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
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    compose_extension,
    deltas,
    point_in_projection,
    projection_checker,
)
from reflekt.reflections import (
    ReflectionSpec,
    reflect_point,
    reflection_map,
    reflection_relation,
)
from reflekt.verify import (
    check_affine_generators,
    random_objectives,
    verify_projection_equality,
)
from reflekt.lp import OPTIMAL
from reflekt.numeric import EXACT, dot, rank
from test_constructions import huffman_pair_property


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())


def test_criterion_01_mgon_sizes_and_equality():
    t0 = time.perf_counter()
    problems = []
    for m in range(3, 65):
        ef = mgon_ef(m)
        r = ceil_log2(m)
        if ef.ledger.inequalities != 2 * r + 2:
            problems.append(f"m={m}: inequality count {ef.ledger.inequalities}")
        checker = projection_checker(ef)
        if checker.n_free != r + 1:
            problems.append(f"m={m}: reduced variables {checker.n_free}")
        orbit = mgon_orbit(m)
        for v in orbit.points:
            if not point_in_projection(ef, v, tol=1e-7):
                problems.append(f"m={m}: vertex {v} infeasible at 1e-7")
                break
        rng = random.Random(m)
        for c in random_objectives(2, 25, rng, "float"):
            status, value = checker.maximize_projected(c)
            brute = max(dot(c, v) for v in orbit.points)
            if status != "optimal" or abs(value - brute) > 1e-6:
                problems.append(f"m={m}: objective {c} off by {abs(value - brute)}")
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    _report("1 (m-gon, m=3..64)", not problems, f"{elapsed:.1f}s")
    assert not problems, problems


def test_criterion_02_permutahedron_exact():
    timings = {}
    problems = []
    for n in range(3, 8):
        t0 = time.perf_counter()
        net = batcher(n)
        base = HPolyhedron.point(tuple(F(k + 1) for k in range(n)))
        ef = a_permutahedron_ef(base, n, net)
        if ef.ledger.inequalities != 2 * len(net):
            problems.append(f"n={n}: inequalities != 2|net|")
        rep = verify_projection_equality(
            ef, permutation_orbit(tuple(range(1, n + 1))), 50, seed=7
        )
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}: {rep.to_text()}")
        timings[n] = time.perf_counter() - t0
    if timings[7] >= 180.0:
        problems.append(f"n=7 runtime {timings[7]:.0f}s >= 180s")
    _report("2 (permutahedron, n=3..7)", not problems, f"n=7 in {timings[7]:.1f}s")
    assert not problems, problems


def test_criterion_03_signed_permutahedron():
    problems = []
    for n in (3, 4, 5):
        net = batcher(n)
        base = HPolyhedron.point(tuple(F(k + 1) for k in range(n)))
        ef = b_permutahedron_ef(base, n, net)
        if ef.ledger.inequalities != 2 * len(net) + 2 * n:
            problems.append(f"n={n}: inequality count")
        orbit = signed_orbit(tuple(range(1, n + 1)))
        assert len(orbit) == 2 ** n * _factorial(n)
        rep = verify_projection_equality(ef, orbit, 50, seed=7)
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}: {rep.to_text()}")
    _report("3 (signed permutahedron, n=3..5)", not problems)
    assert not problems, problems


def test_criterion_04_even_signed_permutahedron():
    problems = []
    for n in (3, 4, 5):
        net = batcher(n)
        base = HPolyhedron.point(tuple(F(k + 1) for k in range(n)))
        ef = d_permutahedron_ef(base, n, net)
        if ef.ledger.inequalities != 2 * len(net) + 4 * (n - 1):
            problems.append(f"n={n}: inequality count")
        orbit = even_signed_orbit(tuple(range(1, n + 1)))
        assert len(orbit) == 2 ** (n - 1) * _factorial(n)
        rep = verify_projection_equality(ef, orbit, 50, seed=7)
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}: {rep.to_text()}")
    _report("4 (even-signed permutahedron, n=3..5)", not problems)
    assert not problems, problems


def test_criterion_05_parity_polytopes():
    problems = []
    slowest = 0.0
    for n in range(2, 11):
        t0 = time.perf_counter()
        for parity in ("odd", "even"):
            ef = parity_polytope_ef(n, parity)
            if ef.ledger.inequalities != 4 * (n - 1):
                problems.append(f"n={n} {parity}: inequality count")
            if projection_checker(ef).n_free != 2 * (n - 1):
                problems.append(f"n={n} {parity}: reduced variables")
            orbit = parity_vertices(n, parity)
            assert len(orbit) == 2 ** (n - 1)
            rep = verify_projection_equality(ef, orbit, 50, seed=7)
            if not rep.passed or rep.objective_max_deviation != 0:
                problems.append(f"n={n} {parity}: {rep.to_text()}")
        slowest = max(slowest, time.perf_counter() - t0)
        if n == 10 and time.perf_counter() - t0 >= 60.0:
            problems.append(f"n=10 runtime {time.perf_counter() - t0:.0f}s >= 60s")
    _report("5 (parity polytopes, n=2..10)", not problems, f"worst n {slowest:.1f}s")
    assert not problems, problems


def test_criterion_06_huffman_quadratic():
    problems = []
    counts = {}
    for n in range(3, 8):
        ef = huffman_ef_quadratic(n)
        expected_ineq = sum(2 * (2 * k - 3) for k in range(3, n + 1))
        if ef.ledger.inequalities != expected_ineq:
            problems.append(f"n={n}: inequality count")
        orbit = huffman_vectors(n)
        counts[n] = len(orbit)
        rep = verify_projection_equality(ef, orbit, 50, seed=7)
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}: {rep.to_text()}")
    if counts[3] != 3 or counts[4] != 13:
        problems.append(f"oracle counts off: {counts}")
    _report("6 (Huffman quadratic, n=3..7)", not problems, f"|V|={counts}")
    assert not problems, problems


def test_criterion_07_huffman_logarithmic():
    problems = []
    for n in range(4, 9):
        net = batcher(n)
        level = lambda k, _n=n, _net=net: _net if k == _n else stride_seq(k)
        for v in huffman_vectors(n).points:
            if not huffman_pair_property(v, level):
                problems.append(f"n={n}: pair property fails at {v}")
                break
    for n in (4, 5, 6):
        rep = verify_projection_equality(huffman_ef_nlogn(n), huffman_vectors(n), 50, seed=7)
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}: {rep.to_text()}")
    _report("7 (Huffman log-size levels, n=4..8)", not problems)
    assert not problems, problems


def test_criterion_08_signing_cross_polytopes():
    problems = []
    for n in (2, 3, 4):
        rows = []
        for j in range(n):
            row = [F(0)] * n
            row[j] = F(-1)
            rows.append((tuple(row), F(0)))
        simplex = HPolyhedron.from_rows(n, rows, [((F(1),) * n, F(1))])
        ef = signing_ef(simplex, n)
        if ef.ledger.inequalities != simplex.n_inequalities + 2 * n:
            problems.append(f"n={n}: ledger does not add 2n inequalities")
        cross_pts = []
        for j in range(n):
            for s in (1, -1):
                p = [F(0)] * n
                p[j] = F(s)
                cross_pts.append(tuple(p))
        oracle = VertexSet(n, tuple(sorted(cross_pts)), f"cross({n})")
        rep = verify_projection_equality(ef, oracle, 50, seed=7)
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}: {rep.to_text()}")
    _report("8 (signing: simplex to cross-polytope, n=2..4)", not problems)
    assert not problems, problems


def test_criterion_09_completion_time():
    problems = []
    rng = random.Random(2024)
    for n in (3, 4, 5):
        p = tuple(F(rng.randint(1, 24), rng.randint(1, 6)) for _ in range(n))
        ef = completion_time_ef(p)
        orbit = completion_time_vertices(p)
        rep = verify_projection_equality(ef, orbit, 50, seed=7)
        if not rep.passed or rep.objective_max_deviation != 0:
            problems.append(f"n={n}, p={p}: {rep.to_text()}")
    _report("9 (completion-time polytopes, n=3..5)", not problems)
    assert not problems, problems


def test_criterion_10a_batcher_exhaustive():
    t0 = time.perf_counter()
    ok = all(is_sorting_network(batcher(n)) for n in range(1, 17))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report("10a (Batcher 0/1 validation, n<=16)", ok, f"{elapsed:.1f}s")
    assert ok


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _random_spec(rng, n):
    while True:
        a = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        if any(a):
            return ReflectionSpec(a, F(rng.randint(-5, 5)))


def test_criterion_10b_generator_property():
    rng = random.Random(31)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 4)
        spec = _random_spec(rng, n)
        maps = (AffineMap.identity(n), reflection_map(spec))
        if not check_affine_generators(
            reflection_relation(spec), maps, samples=2, seed=rng.randint(0, 10 ** 6)
        ):
            ok = False
            break
    _report("10b (fiber generators, 100 random relations)", ok)
    assert ok


def test_criterion_10c_fiber_dimensions():
    rng = random.Random(32)
    ok = True
    for _ in range(50):
        n = rng.randint(1, 5)
        rel = reflection_relation(_random_spec(rng, n))
        if deltas(rel) != (1, 1):
            ok = False
            break
    _report("10c (fiber dimensions are (1,1), 50 random relations)", ok)
    assert ok


def test_criterion_10d_involution_exact():
    rng = random.Random(33)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 5)
        spec = _random_spec(rng, n)
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        if reflect_point(spec, reflect_point(spec, x)) != x:
            ok = False
            break
    _report("10d (reflection involution, exact)", ok)
    assert ok


# Type-valid single-relation drops that leave the projection unchanged; the
# reasons are in the docstring of criterion 10e.  The method never promises
# that every relation of a chain is essential, and the chains keep these
# relations so that the ledgers stay literal.
_PROVEN_DROPS = {
    "d_permutahedron n=3": (1, 2, 3),
    "parity n=3": (1,),
    "huffman_quadratic n=4": (3, 9),
    "huffman_nlogn n=4": (1, 8, 9),
}


def _mutation_survivors(ef, oracle, tol=1e-9):
    """Type-valid single-relation drops that still verify cleanly, as a map
    from the dropped index to the mutated formulation."""
    survivors = {}
    for i, rel in enumerate(ef.relations):
        if rel.n != rel.m:
            continue
        mutated = compose_extension(ef.base, ef.relations[:i] + ef.relations[i + 1 :])
        rep = verify_projection_equality(mutated, oracle, 30, seed=13, tol=tol)
        if rep.passed:
            survivors[i] = mutated
    return survivors


def _det(rows):
    """Exact determinant of a square list of rational rows."""
    m = [list(r) for r in rows]
    out = F(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def _cofactor_normal(rows, width):
    """A vector orthogonal to width-1 rows, zero iff they are dependent
    (expansion of det([x; rows]) along its first row)."""
    return tuple(
        (-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(width)
    )


def _independent(vectors, length):
    """Greedy indices of the vectors that raise the rank, up to ``length``."""
    picked = []
    for i in range(len(vectors)):
        if len(picked) == length:
            break
        if rank([vectors[j] for j in picked + [i]]) > len(picked):
            picked.append(i)
    return picked


def _hull_normals(points):
    """Complete H-certificate directions of conv(points), by brute force:
    both signs of every affine-hull equation, then one outer normal per
    facet.  conv(points) is exactly the set on which no direction c exceeds
    max <c, v> over the points."""
    d = len(points[0])
    diffs = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    k = rank(diffs)
    # coordinates S on which the affine hull projects one to one
    S = _independent([tuple(row[j] for row in diffs) for j in range(d)], k)

    def lift(coeffs, coords):
        c = [F(0)] * d
        for j, e in zip(coords, coeffs):
            c[j] = e
        return tuple(c)

    normals = []
    rows = [diffs[i] for i in _independent(diffs, k)]
    for j in range(d):
        if j in S:
            continue
        coords = S + [j]
        eq = _cofactor_normal([tuple(r[i] for i in coords) for r in rows], k + 1)
        normals.append(lift(eq, coords))
        normals.append(lift(tuple(-e for e in eq), coords))

    proj = sorted({tuple(p[j] for j in S) for p in points})
    facets = set()
    for subset in combinations(proj, k):
        face = [tuple(a - b for a, b in zip(q, subset[0])) for q in subset[1:]]
        c = _cofactor_normal(face, k)
        if not any(c):
            continue
        beta = dot(c, subset[0])
        values = [dot(c, q) for q in proj]
        if all(v <= beta for v in values):
            outer = c
        elif all(v >= beta for v in values):
            outer = tuple(-e for e in c)
        else:
            continue
        scale = abs(next(e for e in outer if e))
        facets.add(tuple(e / scale for e in outer))
    return normals + [lift(c, S) for c in sorted(facets)]


def _fmt(v):
    return "(" + ", ".join(str(e) for e in v) + ")"


def _counterexample(ef, V, normals):
    """Complete certificate of projection(Q) == conv(V) on the exact backend:
    every vertex of V lies in the projection (so conv(V) is inside it), and
    on each of the ``_hull_normals`` of V the LP maximum over Q equals the
    brute-force maximum over V (so the projection is inside conv(V)).
    Returns the first failed check, or None when the proof is complete."""
    for v in V.points:
        if not point_in_projection(ef, v):
            return f"vertex {_fmt(v)} lies outside the projection"
    checker = projection_checker(ef)
    for c in normals:
        status, value = checker.maximize_projected(c)
        brute = max(dot(c, v) for v in V.points)
        if status != OPTIMAL or value != brute:
            return f"direction {_fmt(c)}: LP {status} {value}, vertices {brute}"
    return None


def test_criterion_10e_mutation_sensitivity():
    """Verification catches every single-relation drop that changes the
    projection, for a small instance of every construction.

    The drops that survive sampled verification must be exactly the pinned
    ``_PROVEN_DROPS``, and each must pass the complete certificate of
    ``_counterexample``: every oracle vertex lies in the mutated projection,
    and the LP maximum over the mutated formulation equals the brute-force
    maximum on both signs of every affine-hull equation and on every facet
    normal of conv(V).  That proves the drop leaves the projection
    unchanged.  A reflection relation maps a point on its mirror to itself,
    and its image is symmetric under its own reflection.  So:

    * d_permutahedron n=3, 1: Batcher's (1,3) comparator; the (2,3)
      transposition of the later even pair still adds (2,3,1) and (3,2,1).
    * d_permutahedron n=3, 2 and 3: a duplicate reflection; Batcher's last
      comparator (1,2) and the first transposition of the (1,2) even pair
      are the same reflection (e1-e2, 0), back to back.
    * parity n=3, 1: the first double flip (-e1-e2, 0) of the parity chain;
      its input segment [(-1,1,1), (1,-1,1)] lies on its mirror.
    * huffman_quadratic n=4, 3 and 9: the repeated (1,2) transposition of
      double_bubble_seq at levels 3 and 4; at level 3 its input is already
      every permutation of (1,2,2).
    * huffman_nlogn n=4, 1: the first (2,3) of stride_seq(3); its input
      (1,2,2) lies on its mirror.
    * huffman_nlogn n=4, 8 and 9: the first-layer comparators (3,4) and (1,2)
      of Batcher(4); the embedded level-3 hull that the top level sorts into
      already has x3 = x4 and is symmetric under (1,2).

    On the exact backend a failed vertex or objective check is a concrete
    counterexample, so the survivor set does not depend on the seed.
    """
    point = HPolyhedron.point
    instances = [
        ("signing n=3", signing_ef(point((F(1), F(2), F(3))), 3),
         sign_flip_orbit((1, 2, 3)), 1e-9),
        ("mgon m=4", mgon_ef(4), mgon_orbit(4), 1e-6),
        ("a_permutahedron n=3",
         a_permutahedron_ef(point((F(1), F(2), F(3))), 3, batcher(3)),
         permutation_orbit((1, 2, 3)), 1e-9),
        ("b_permutahedron n=3",
         b_permutahedron_ef(point((F(1), F(2), F(3))), 3, batcher(3)),
         signed_orbit((1, 2, 3)), 1e-9),
        ("d_permutahedron n=3",
         d_permutahedron_ef(point((F(1), F(2), F(3))), 3, batcher(3)),
         even_signed_orbit((1, 2, 3)), 1e-9),
        ("parity n=3", parity_polytope_ef(3, "odd"), parity_vertices(3, "odd"), 1e-9),
        ("huffman_quadratic n=4", huffman_ef_quadratic(4), huffman_vectors(4), 1e-9),
        ("huffman_nlogn n=4", huffman_ef_nlogn(4), huffman_vectors(4), 1e-9),
        ("completion_time n=3", completion_time_ef((F(1), F(2), F(3))),
         completion_time_vertices((1, 2, 3)), 1e-9),
    ]
    problems = []
    surviving = {}
    for name, ef, oracle, tol in instances:
        found = _mutation_survivors(ef, oracle, tol)
        if found:
            surviving[name] = sorted(found)
        pinned = _PROVEN_DROPS.get(name, ())
        for i in sorted(set(pinned) - set(found)):
            problems.append(f"{name}: pinned drop {i} no longer survives")
        normals = None
        for i in sorted(found):
            if i not in pinned:
                problems.append(f"{name}: drop {i} survives but is not pinned")
                continue
            if ef.backend != EXACT:
                problems.append(f"{name}: drop {i} cannot be proven in floats")
                continue
            if normals is None:
                normals = _hull_normals(oracle.points)
            failed = _counterexample(found[i], oracle, normals)
            if failed:
                problems.append(f"{name}: drop {i} lacks a proof: {failed}")
    _report(
        "10e (every drop that changes the projection is caught)",
        not problems,
        f"surviving drops, each proven harmless: {surviving}",
    )
    assert not problems, "\n".join(problems)
