"""Builders for the named extended formulations.

Every builder composes a base polytope with a chain of reflection relations
(plus graph relations where a level change or a final affine transform is
needed) and returns an :class:`ExtendedFormulation` whose ledger carries the
advertised size counts.  Hypotheses of the form "the canonical form of every
vertex of P lies in P" cannot be checked from an H-representation; they are
caller obligations here, and the verifier validates the conclusion instead.
The one exception is a one-point base of a pure reflection chain (signing,
dihedral and permutation-type orbits), checked up front to be canonical.

Only the m-gon / dihedral chain (:func:`i2_chain_specs`) is float, because
its normals are irrational; every other chain and map here is exact and
takes no backend, so a float base for any other builder raises
:class:`~reflekt.numeric.BackendError` before its chain is built.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import cos, pi, sin
from typing import Optional, Sequence

from .networks import (
    ComparatorSeq,
    batcher,
    double_bubble_seq,
    insertion_network,
    is_sorting_network,
    stride_indices,
    stride_seq,
)
from .numeric import EXACT, FLOAT, MINUS_ONE, ONE, ZERO, BackendError, DimensionError, ScaledPoint
from .numeric import identity_matrix, int_scale, sparse_row, unit_vector, vector, vectors_eq
from .polyhedra import (
    AffineMap,
    ExtendedFormulation,
    HPolyhedron,
    PolyhedralRelation,
    compose_extension,
    graph_relation,
)
from .reflections import (
    ReflectionSpec,
    apply_preimage_chain,
    even_sign_pair_specs,
    reflection_relation,
    sign_spec,
    transposition_spec,
)

_VALIDATE_NET_CAP = 16


def ceil_log2(m: int) -> int:
    if m < 1:
        raise ValueError("positive argument required")
    return (m - 1).bit_length()


def sign_chain_specs(n: int):
    """Sign-change relations for coordinates 1..n, in chain order."""
    return [sign_spec(k, n) for k in range(1, n + 1)]


def transposition_chain_specs(net: ComparatorSeq):
    """Transposition relations matching a comparator network, in chain
    order: the sequence reversed, so its first-applied comparator becomes
    the last relation and the chain's preimage pass, which walks the chain
    from its last relation, replays the network in application order."""
    return [transposition_spec(k, ell, net.n) for k, ell in reversed(net.comparators)]


def even_pair_chain_specs(n: int):
    """Flattened even-sign-change pairs for (1,2), (2,3), .., (n-1,n)."""
    specs = []
    for k in range(1, n):
        specs.extend(even_sign_pair_specs(k, k + 1, n))
    return specs


def i2_chain_specs(m: int):
    """Halfspace chain for the dihedral symmetry group of the regular
    m-gon: normals (-sin phi, cos phi) at the doubling angles
    phi = pi/m, 2pi/m, 4pi/m, .., 2^r pi/m with r = ceil(log2(m)).

    All r+1 angles are always emitted, even when the doubling march makes
    one relation geometrically redundant; the advertised counts stay
    literal that way.
    """
    if m < 3:
        raise ValueError("an m-gon needs m >= 3")
    r = ceil_log2(m)
    specs = []
    for j in range(r + 1):
        phi = pi * (2 ** j) / m
        specs.append(ReflectionSpec((-sin(phi), cos(phi)), 0.0, FLOAT))
    return specs


def _reflection_chain(specs) -> list:
    return [reflection_relation(s) for s in specs]


def _validated(net: ComparatorSeq, n: int) -> ComparatorSeq:
    # an empty sequence is an explicit opt-out of the sorting stage (used by
    # constructions whose base point is already canonically ordered)
    if net.n != n:
        raise DimensionError(f"network width {net.n} != dimension {n}")
    if len(net) and net.n <= _VALIDATE_NET_CAP and not is_sorting_network(net):
        raise ValueError("comparator sequence does not sort all inputs")
    return net


def _check_point_base(P: HPolyhedron, specs) -> None:
    """Reject a one-point base (as :meth:`HPolyhedron.point` writes it)
    that the chain's canonical-preimage pass moves: that point is not its
    own canonical form, so the formulation could not contain its orbit."""
    if P.A or P.C != identity_matrix(P.dim, P.backend):
        return
    exact = P.backend == EXACT  # an exact base walks the chain as one ScaledPoint
    canonical = apply_preimage_chain(specs, ScaledPoint.of(P.d) if exact else P.d)
    canonical = canonical.fractions() if exact else canonical
    if not vectors_eq(canonical, P.d):
        given = ", ".join(map(str, P.d))
        moved = ", ".join(map(str, canonical))
        raise ValueError(
            f"base point ({given}) is not in canonical form for this chain; "
            f"its canonical-preimage pass gives ({moved})"
        )


def _exact_base(P: HPolyhedron, n: int) -> None:
    """Reject a float base, or one not in dimension n, for an exact chain,
    before the chain is built, so an empty chain rejects it too."""
    if P.backend != EXACT:
        raise BackendError("this construction is exact; its base must be exact, not float")
    if P.dim != n:
        raise DimensionError(f"base lives in dim {P.dim}, expected {n}")


def _orbit_ef(P: HPolyhedron, specs, label: str) -> ExtendedFormulation:
    """P composed with the reflection relations of ``specs``, after
    :func:`_check_point_base` has accepted a one-point base."""
    _check_point_base(P, specs)
    return compose_extension(P, _reflection_chain(specs), label=label)


def make_network(kind: str, n: int) -> ComparatorSeq:
    if kind == "batcher":
        return batcher(n)
    if kind == "insertion":
        return insertion_network(n)
    raise ValueError(f"unknown network kind {kind!r}")


def signing_ef(P: HPolyhedron, n: Optional[int] = None) -> ExtendedFormulation:
    """Extension of the convex hull of all sign-flip images of P.

    Caller obligation: |v| is in P for every vertex v of P.  Adds n fiber
    variables and 2n inequalities on top of P's own description.
    """
    if n is None:
        n = P.dim
    _exact_base(P, n)
    return _orbit_ef(P, sign_chain_specs(n), f"signing(n={n})")


def i2_permutahedron_ef(P: HPolyhedron, m: int) -> ExtendedFormulation:
    """Extension of the convex hull of P's orbit under the symmetry group
    of the regular m-gon; float backend only (the halfspace normals are
    irrational up to scaling for every m).

    Caller obligation: the canonical fundamental-domain representative of
    every vertex of P lies in P.
    """
    if P.dim != 2:
        raise DimensionError("dihedral orbits live in the plane")
    if P.backend != FLOAT:
        raise BackendError(
            "m-gon constructions require the float backend; their halfspace "
            "normals are irrational"
        )
    return _orbit_ef(P, i2_chain_specs(m), f"i2_permutahedron(m={m})")


def mgon_ef(m: int) -> ExtendedFormulation:
    """Regular m-gon with a vertex at (1,0): the one-point base (1,0)
    pushed through the dihedral halfspace chain; 2*ceil(log2 m)+2
    inequalities and ceil(log2 m)+1 variables after equation elimination."""
    return _orbit_ef(HPolyhedron.point((1.0, 0.0), FLOAT), i2_chain_specs(m), f"mgon(m={m})")


def a_permutahedron_ef(
    P: HPolyhedron, n: int, net: ComparatorSeq
) -> ExtendedFormulation:
    """Extension of the convex hull of all coordinate permutations of P.

    Caller obligation: sort(v) in P for each vertex v; a one-point base
    that is not sorted raises ValueError.  The base point (1,..,n) yields
    the permutahedron with 2|net| inequalities.
    """
    _exact_base(P, n)
    net = _validated(net, n)
    return _orbit_ef(P, transposition_chain_specs(net), f"a_permutahedron(n={n})")


def b_permutahedron_ef(
    P: HPolyhedron, n: int, net: ComparatorSeq
) -> ExtendedFormulation:
    """Extension of the convex hull of all signed permutations of P
    (permutations plus arbitrary sign changes).

    Caller obligation: sortabs(v) in P for each vertex v; a one-point base
    that is not its own sortabs raises ValueError.  Adds 2|net| + 2n
    inequalities.
    """
    _exact_base(P, n)
    net = _validated(net, n)
    specs = transposition_chain_specs(net) + sign_chain_specs(n)
    return _orbit_ef(P, specs, f"b_permutahedron(n={n})")


def d_permutahedron_ef(
    P: HPolyhedron, n: int, net: ComparatorSeq
) -> ExtendedFormulation:
    """Extension of the convex hull of all even-signed permutations of P
    (permutations plus sign changes on an even number of coordinates).

    Caller obligation: the even-sign canonical form of each vertex lies in
    P; a one-point base that is not its own canonical form raises
    ValueError.  Adds 2|net| + 4(n-1) inequalities.
    """
    _exact_base(P, n)
    if n < 2:
        raise DimensionError("even-signed orbits need dimension >= 2")
    net = _validated(net, n)
    specs = transposition_chain_specs(net) + even_pair_chain_specs(n)
    return _orbit_ef(P, specs, f"d_permutahedron(n={n})")


def _affine_unit_remap(n: int) -> AffineMap:
    """y -> (1 - y) / 2: carries {-1,+1} data onto {0,1} data."""
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    return AffineMap(tuple(sparse_row(n, ((i, minus_half),)) for i in range(n)), (half,) * n)


def parity_polytope_ef(n: int, parity: str) -> ExtendedFormulation:
    """Convex hull of the 0/1 vectors with an odd (or even) coordinate sum:
    a one-point +-1 base pushed through the even-sign-change pairs, then
    remapped onto 0/1 by a final graph relation so the ledger stays honest.

    4(n-1) inequalities; 2(n-1) variables after equation elimination.
    """
    if n < 2:
        raise ValueError("parity polytopes need n >= 2")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    first = Fraction(-1) if parity == "odd" else Fraction(1)
    base = HPolyhedron.point((first,) + (Fraction(1),) * (n - 1))
    chain = _reflection_chain(even_pair_chain_specs(n))
    chain.append(graph_relation(_affine_unit_remap(n)))
    return compose_extension(base, chain, label=f"parity(n={n},{parity})")


def embedding_map(k: int) -> AffineMap:
    """Level embedding (x_1,..,x_{k-1}) -> (x_1,..,x_{k-2}, x_{k-1}+1,
    x_{k-1}+1): splits the deepest leaf of a depth vector in two."""
    if k < 3:
        raise ValueError("embedding needs k >= 3")
    rows = tuple(unit_vector(min(i, k - 2), k - 1, EXACT) for i in range(k))
    return AffineMap(rows, (ZERO,) * (k - 2) + (ONE, ONE))


def _huffman_chain(n: int, level_seq) -> list:
    """Shared Huffman chain: embed one level up, then that level's
    transposition relations, for k = 3..n."""
    chain = []
    for k in range(3, n + 1):
        chain.append(graph_relation(embedding_map(k)))
        specs = transposition_chain_specs(level_seq(k))
        chain.extend(_reflection_chain(specs))
    return chain


def huffman_ef_quadratic(n: int) -> ExtendedFormulation:
    """Extension of the convex hull of all leaf-depth vectors of full
    binary trees with n leaves, built level by level with the quadratic
    double-bubble sequences: sum over k of 2(2k-3) inequalities."""
    if n < 2:
        raise ValueError("depth vectors need n >= 2")
    base = HPolyhedron.point((Fraction(1), Fraction(1)))
    chain = _huffman_chain(n, double_bubble_seq)
    return compose_extension(base, chain, label=f"huffman_quadratic(n={n})")


def huffman_ef_nlogn(n: int, net: Optional[ComparatorSeq] = None) -> ExtendedFormulation:
    """Size-reduced Huffman extension: inner levels k in {3..n-1} use the
    logarithmic stride sequences, only the top level runs a full sorting
    network over all n coordinates."""
    if n < 2:
        raise ValueError("depth vectors need n >= 2")
    if net is None:
        net = batcher(n)
    if n >= 3:
        net = _validated(net, n)

    def level_seq(k):
        return net if k == n else stride_seq(k)

    base = HPolyhedron.point((Fraction(1), Fraction(1)))
    chain = _huffman_chain(n, level_seq)
    return compose_extension(base, chain, label=f"huffman_nlogn(n={n})")


def _job_step_map(p: Sequence, k: int) -> AffineMap:
    """One scheduling step: from (completions of jobs 1..k-1, placement
    indicators) to completions of jobs 1..k, where indicator j says job j
    runs after job k."""
    kk, pk = k - 1, p[k - 1]
    rows = [sparse_row(2 * kk, ((i, ONE), (kk + i, pk))) for i in range(kk)]
    rows.append((ZERO,) * kk + tuple(-e if e else ZERO for e in p[:kk]))
    t = (ZERO,) * kk + (sum(p[:kk], ZERO) + pk,)
    return AffineMap(tuple(rows), t)


def _job_step_preimage(p: Sequence, k: int):
    """Reconstruct a step input from a completion vector: jobs finishing
    after job k get indicator 1, and so does one finishing with it when
    p_k > 0 (then the other job takes no time).  The assembled witness is
    still constraint-checked, and a mismatch just falls back to the LP."""
    kk = k - 1
    (pk,), q = int_scale([p[k - 1]])

    def preimage(y, tol=1e-9):
        if not isinstance(y, ScaledPoint):
            return preimage(ScaledPoint.of(y)).fractions()
        Y, D = y
        ind = [1 if Y[j] > Y[kk] or (Y[j] == Y[kk] and pk > 0) else 0 for j in range(kk)]
        head = tuple(Y[j] * q - pk * D * ind[j] for j in range(kk))
        return ScaledPoint(head + tuple(e * q * D for e in ind), q * D)

    return preimage


def _box_lift_relation(k: int) -> PolyhedralRelation:
    """Pairs x in R^{k-1} with (x, u) for any u in the unit box [0,1]^{k-1}:
    k-1 copy equations plus the 2(k-1) box facets."""
    kk, w = k - 1, 3 * (k - 1)
    C = tuple(sparse_row(w, ((j, MINUS_ONE), (kk + j, ONE))) for j in range(kk))
    A = tuple(sparse_row(w, ((2 * kk + j, c),)) for j in range(kk) for c in (ONE, MINUS_ONE))
    body = HPolyhedron(w, A, (ONE, ZERO) * kk, C, (ZERO,) * kk)

    def preimage(y, tol=1e-9, _kk=kk):
        return ScaledPoint(y.nums[:_kk], y.den) if isinstance(y, ScaledPoint) else tuple(y[:_kk])

    return PolyhedralRelation(kk, 2 * kk, body, preimage=preimage, step=("box", kk))


def completion_time_ef(p: Sequence) -> ExtendedFormulation:
    """Extension of the convex hull of all completion-time vectors for
    nonnegative processing times p: each step crosses the current polytope
    with a unit box and applies one scheduling step, so the whole thing is
    an affine image of a cube of dimension n(n-1)/2."""
    p = vector(p, EXACT)
    if any(e < 0 for e in p):
        raise ValueError("processing times must be nonnegative")
    n = len(p)
    if n < 1:
        raise ValueError("at least one job required")
    base = HPolyhedron.point((p[0],))
    chain = []
    for k in range(2, n + 1):
        chain.append(_box_lift_relation(k))
        step = graph_relation(_job_step_map(p, k))
        chain.append(replace(step, preimage=_job_step_preimage(p, k)))
    return compose_extension(base, chain, label=f"completion_time(n={n})")


# The parameters each recipe reads.  build_recipe and expected_ledger reject
# any other key, and the CLI any other flag: nothing given is dropped unread.
RECIPE_KEYS = {
    "signing": ("n", "base"),
    "mgon": ("m",),
    "i2_permutahedron": ("m", "base"),
    "a_permutahedron": ("n", "base", "network"),
    "b_permutahedron": ("n", "base", "network"),
    "d_permutahedron": ("n", "base", "network"),
    "parity": ("n", "parity"),
    "huffman_quadratic": ("n",),
    "huffman_nlogn": ("n", "network"),
    "completion_time": ("p",),
}
RECIPES = tuple(RECIPE_KEYS)


def _check_keys(name: str, params: dict) -> None:
    """ValueError for an unknown recipe or a parameter it does not read."""
    if name not in RECIPE_KEYS:
        raise ValueError(f"unknown recipe {name!r}; choose from {', '.join(RECIPES)}")
    for key in params:
        if key not in RECIPE_KEYS[name]:
            raise ValueError(f"recipe {name!r} reads no parameter {key!r}; "
                             f"it reads {', '.join(RECIPE_KEYS[name])}")


def _point_base(params, n):
    base = params.get("base")
    return HPolyhedron.point(range(1, n + 1) if base is None else base)


def build_recipe(name: str, params: dict) -> ExtendedFormulation:
    """Dispatch a named construction from a key->value parameter map; the
    CLI feeds both flag values and JSON recipe documents through here.  An
    unknown name, or a key that :data:`RECIPE_KEYS` does not list for it,
    raises ValueError."""
    _check_keys(name, params)
    net_kind = params.get("network", "batcher")
    if name == "mgon":
        return mgon_ef(int(params["m"]))
    if name == "i2_permutahedron":
        base = params.get("base")
        P = HPolyhedron.point((1.0, 0.0) if base is None else base, FLOAT)
        return i2_permutahedron_ef(P, int(params["m"]))
    if name == "signing":
        n = int(params["n"])
        return signing_ef(_point_base(params, n), n)
    if name == "a_permutahedron":
        n = int(params["n"])
        return a_permutahedron_ef(_point_base(params, n), n, make_network(net_kind, n))
    if name == "b_permutahedron":
        n = int(params["n"])
        return b_permutahedron_ef(_point_base(params, n), n, make_network(net_kind, n))
    if name == "d_permutahedron":
        n = int(params["n"])
        return d_permutahedron_ef(_point_base(params, n), n, make_network(net_kind, n))
    if name == "parity":
        return parity_polytope_ef(int(params["n"]), params.get("parity", "odd"))
    if name == "huffman_quadratic":
        return huffman_ef_quadratic(int(params["n"]))
    if name == "huffman_nlogn":
        n = int(params["n"])
        return huffman_ef_nlogn(n, make_network(net_kind, n))
    if name == "completion_time":
        return completion_time_ef(params["p"])
    raise AssertionError("unreachable")


def expected_ledger(name: str, params: dict) -> dict:
    """Closed-form size counts for point-based recipes (the golden table);
    the names and keys are checked as by :func:`build_recipe`."""
    _check_keys(name, params)
    net_kind = params.get("network", "batcher")
    if name == "mgon" or name == "i2_permutahedron":
        m = int(params["m"])
        r = ceil_log2(m)
        return {"inequalities": 2 * r + 2, "reduced_variables": r + 1}
    if name == "signing":
        n = int(params["n"])
        return {"inequalities": 2 * n, "reduced_variables": n}
    if name in ("a_permutahedron", "b_permutahedron", "d_permutahedron"):
        n = int(params["n"])
        size = len(make_network(net_kind, n))
        if name == "a_permutahedron":
            return {"inequalities": 2 * size, "reduced_variables": size}
        if name == "b_permutahedron":
            return {"inequalities": 2 * size + 2 * n, "reduced_variables": size + n}
        return {
            "inequalities": 2 * size + 4 * (n - 1),
            "reduced_variables": size + 2 * (n - 1),
        }
    if name == "parity":
        n = int(params["n"])
        return {"inequalities": 4 * (n - 1), "reduced_variables": 2 * (n - 1)}
    if name == "huffman_quadratic":
        n = int(params["n"])
        return {
            "inequalities": sum(2 * (2 * k - 3) for k in range(3, n + 1)),
            "reduced_variables": sum(2 * k - 3 for k in range(3, n + 1)),
        }
    if name == "huffman_nlogn":
        n = int(params["n"])
        size = len(make_network(net_kind, n)) if n >= 3 else 0
        inner = sum(2 * len(stride_indices(k)) - 3 for k in range(3, n))
        return {
            "inequalities": 2 * (size + inner),
            "reduced_variables": size + inner,
        }
    if name == "completion_time":
        n = len(params["p"])
        return {
            "inequalities": n * (n - 1),
            "reduced_variables": n * (n - 1) // 2,
        }
    raise AssertionError("unreachable")
