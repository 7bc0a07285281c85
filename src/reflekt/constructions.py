"""Builders for the named extended formulations.

Every builder composes a base polytope with a chain of reflection relations
(plus graph relations for a level change or a final affine map) and returns
an :class:`ExtendedFormulation` whose ledger carries its size counts.  That
the canonical form of every vertex of P lies in P cannot be checked from an
H-representation: it is a caller obligation, and the verifier checks the
conclusion instead, save that a one-point base of a pure reflection chain
is checked up front to be canonical.  Only the m-gon / dihedral chain
(:func:`i2_chain_specs`) is float, as its normals are irrational; a float
base for any other builder raises :class:`~reflekt.numeric.BackendError`
before its chain is built.  Each named recipe is one table entry: the
parameters it reads, its builder, and the closed-form count k of its
reduced columns, whose golden size is 2k inequalities; one reader checks
every parameter for both.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from dataclasses import replace
from fractions import Fraction
from math import cos, pi, sin
from typing import Callable, NamedTuple, Optional

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


class _Recipe(NamedTuple):
    """A named construction: the parameters it reads, its builder and the
    closed-form count of its reduced columns, both fed :func:`_read`'s values."""

    keys: tuple
    build: Callable[..., ExtendedFormulation]
    columns: Callable[..., int]


def _point_base(base, n):
    return HPolyhedron.point(range(1, n + 1) if base is None else base)


def _sorted(builder):
    """A permutation-type builder: the base point (1,..,n) unless one is
    given, and a sorting network of the named kind."""
    return lambda n, base, network: builder(_point_base(base, n), n, make_network(network, n))


def _nlogn_columns(n, network):
    """The top level's sorting network (none below three leaves), then each
    inner level's stride sequence."""
    top = len(make_network(network, n)) if n >= 3 else 0
    return top + sum(2 * len(stride_indices(k)) - 3 for k in range(3, n))


# Every recipe, once.  build_recipe and expected_ledger reject any key its
# entry does not list, and the CLI any other flag: nothing given is dropped
# unread.
_RECIPE_TABLE = {
    "signing": _Recipe(("n", "base"), lambda n, base: signing_ef(_point_base(base, n), n),
                       lambda n, base: n),
    "mgon": _Recipe(("m",), mgon_ef, lambda m: ceil_log2(m) + 1),
    "i2_permutahedron": _Recipe(("m", "base"), lambda m, base: i2_permutahedron_ef(
        HPolyhedron.point((1.0, 0.0) if base is None else base, FLOAT), m),
        lambda m, base: ceil_log2(m) + 1),
    "a_permutahedron": _Recipe(("n", "base", "network"), _sorted(a_permutahedron_ef),
                               lambda n, base, network: len(make_network(network, n))),
    "b_permutahedron": _Recipe(("n", "base", "network"), _sorted(b_permutahedron_ef),
                               lambda n, base, network: len(make_network(network, n)) + n),
    "d_permutahedron": _Recipe(("n", "base", "network"), _sorted(d_permutahedron_ef),
                               lambda n, base, network: len(make_network(network, n))
                               + 2 * (n - 1)),
    "parity": _Recipe(("n", "parity"), parity_polytope_ef, lambda n, parity: 2 * (n - 1)),
    "huffman_quadratic": _Recipe(("n",), huffman_ef_quadratic,
                                 lambda n: sum(2 * k - 3 for k in range(3, n + 1))),
    "huffman_nlogn": _Recipe(
        ("n", "network"), lambda n, network: huffman_ef_nlogn(n, make_network(network, n)),
        _nlogn_columns),
    "completion_time": _Recipe(("p",), completion_time_ef, lambda p: len(p) * (len(p) - 1) // 2),
}
RECIPE_KEYS = {name: recipe.keys for name, recipe in _RECIPE_TABLE.items()}
RECIPES = tuple(_RECIPE_TABLE)

# The value a base, network or parity takes when left out.
_DEFAULTS = {"base": None, "network": "batcher", "parity": "odd"}


def _value(key: str, value):
    """One parameter as the builders read it, or a ValueError naming the key:
    n and m integers (``3``, ``"3"``, ``3.0``; not a bool, ``3.5`` or ``"3.0"``)
    and base and p sequences other than strings.  The builders check the
    choice of network and parity."""
    if key in ("n", "m"):
        if not isinstance(value, bool):
            with suppress(TypeError, ValueError, OverflowError):
                if isinstance(value, str) or value == int(value):
                    return int(value)
        raise ValueError(f"parameter {key!r} must be an integer, not {value!r}")
    if key in ("base", "p") and (isinstance(value, str) or not isinstance(value, Sequence)):
        raise ValueError(f"parameter {key!r} must be a list of numbers, not {value!r}")
    return value


def _read(name: str, params: dict) -> tuple:
    """``(recipe, values)``: the entry of ``name`` and each parameter it reads,
    once through :func:`_value` or at its default if left out.  An unknown
    name or unlisted key is a ValueError, a left-out n, m or p a KeyError."""
    if name not in _RECIPE_TABLE:
        raise ValueError(f"unknown recipe {name!r}; choose from {', '.join(RECIPES)}")
    recipe = _RECIPE_TABLE[name]
    for key in params:
        if key not in recipe.keys:
            raise ValueError(f"recipe {name!r} reads no parameter {key!r}; "
                             f"it reads {', '.join(recipe.keys)}")
    return recipe, {key: _DEFAULTS[key] if key in _DEFAULTS and key not in params
                    else _value(key, params[key]) for key in recipe.keys}


def build_recipe(name: str, params: dict) -> ExtendedFormulation:
    """Build a named construction from a key->value parameter map, read by
    :func:`_read`; the CLI feeds both flag values and JSON recipe documents
    through here."""
    recipe, values = _read(name, params)
    return recipe.build(**values)


def expected_ledger(name: str, params: dict) -> dict:
    """Closed-form size counts of a recipe (the golden table), its name and
    parameters read as by :func:`build_recipe`.  Each reflection relation
    adds one fiber column and two halfspace inequalities, and the
    completion-time box lift one column and two box facets per coordinate;
    a graph relation adds only equations, which elimination removes.  So k
    reduced columns come with 2k inequalities, and each recipe writes k."""
    recipe, values = _read(name, params)
    k = recipe.columns(**values)
    return {"inequalities": 2 * k, "reduced_variables": k}
