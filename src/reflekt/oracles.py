"""Brute-force vertex enumerators for every target polytope the package
builds; these are the independent ground truth the verifier compares
against, so none of them share code with the constructions.

Each exact oracle scales its input to integers over one denominator
(:func:`~reflekt.numeric.int_scale`), enumerates, deduplicates and sorts
integer tuples, and makes each distinct entry an exact ``Fraction`` once.
It keeps those integer rows on the :class:`VertexSet` and names, in closed
form, a maximiser of any objective over them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, inf, pi, sin
from operator import mul
from typing import Callable, Optional

from .numeric import EXACT, FLOAT, int_scale, vector

_PERM_CAP = 8
_SIGNED_CAP = 6
_HUFFMAN_CAP = 9
_PARITY_CAP = 16


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated point list with a provenance label; enumeration order is
    deterministic (sorted) so runs are reproducible.

    An exact oracle's set keeps the integer rows it was enumerated on, with
    their denominator, as ``scaled = (rows, den)``: point i is
    ``rows[i] / den``.  It is not an init field, so a set built by hand or
    by ``dataclasses.replace`` has none.  Such a set may also carry a
    ``maximiser(c, v)``: a point of V that maximises the integer objective
    c, given in V's integer rows, with v one of those rows (an orbit's
    maximiser reads the orbit off v, the others ignore it).  It is only a
    hint: the verifier uses its answer only once it is found among the
    rows and proved optimal."""

    dim: int
    points: tuple
    label: str
    backend: str = EXACT
    maximiser: Optional[Callable] = field(default=None, compare=False, repr=False)
    scaled: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)


def _fmt(v) -> str:
    return "(" + ",".join(str(e) for e in v) + ")"


def _exact(points, dim, label, den=1, maximiser=None) -> VertexSet:
    """The VertexSet of distinct integer points, given in sorted order,
    over the denominator den: each distinct entry k is made the one
    ``Fraction(k, den)`` that every point shares, and the integer points
    are kept as its ``scaled`` rows."""
    exact = {k: Fraction(k, den) for k in set(itertools.chain.from_iterable(points))}
    pts = tuple(tuple(map(exact.__getitem__, p)) for p in points)
    V = VertexSet(dim, pts, label, EXACT, maximiser)
    object.__setattr__(V, "scaled", (tuple(points), den))
    return V


def _distinct_permutations(items) -> list:
    """All distinct rearrangements of a multiset, lexicographically (Knuth's
    Algorithm L, TAOCP 4A 7.2.1.2)."""
    a = sorted(items)
    n = len(a)
    out = [tuple(a)]
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return out
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]
        out.append(tuple(a))


def _sign_flips(v):
    """Every sign change of v, lexicographically when v is non-negative."""
    return itertools.product(*[(-e, e) if e else (0,) for e in v])


def permutation_orbit(v) -> VertexSet:
    """All coordinate permutations of v, deduplicated."""
    v = vector(v, EXACT)
    if len(v) > _PERM_CAP:
        raise ValueError(f"permutation orbit capped at dim {_PERM_CAP}")
    ints, den = int_scale(v)
    return _exact(_distinct_permutations(ints), len(v), f"permutation_orbit{_fmt(v)}", den,
                  _rearrangement_max)


def _rearrangement_max(c, v) -> tuple:
    """The rearrangement of v that pairs larger c_i with larger entries."""
    out = [None] * len(c)
    for i, e in zip(sorted(range(len(c)), key=c.__getitem__), sorted(v)):
        out[i] = e
    return tuple(out)


def _signed_max(c, v) -> tuple:
    """:func:`_rearrangement_max` on absolute values, each entry signed as
    its c_i (a zero c_i takes +)."""
    out = _rearrangement_max([abs(e) for e in c], [abs(e) for e in v])
    return tuple(-e if ci < 0 else e for ci, e in zip(c, out))


def _even_signed_max(c, v) -> tuple:
    """:func:`_signed_max` with its count of negative entries given v's
    parity by negating the entry at the least |c_i|.  That entry is the
    least |entry|, so the flip costs the least; a zero there (in c or in v)
    absorbs the sign, and a zero entry of v puts every sign in the orbit."""
    out = _signed_max(c, v)
    if sum(e < 0 for e in out) % 2 != sum(e < 0 for e in v) % 2:
        i = min(range(len(c)), key=lambda i: abs(c[i]))
        out = out[:i] + (-out[i],) + out[i + 1:]
    return out


def _sign_flip_max(c, v) -> tuple:
    """|v_i| signed as c_i (a zero c_i takes +)."""
    return tuple(-abs(e) if ci < 0 else abs(e) for ci, e in zip(c, v))


def sign_flip_orbit(v) -> VertexSet:
    """All sign-change images of v (no permutations): the vertex candidates
    of a signing."""
    v = vector(v, EXACT)
    n = len(v)
    if n > _PARITY_CAP:
        raise ValueError(f"sign-flip orbit capped at dim {_PARITY_CAP}")
    ints, den = int_scale(v)
    return _exact(list(_sign_flips(map(abs, ints))), n, f"sign_flip_orbit{_fmt(v)}", den,
                  _sign_flip_max)


def signed_orbit(v) -> VertexSet:
    """All permutations combined with all sign changes."""
    v = vector(v, EXACT)
    n = len(v)
    if n > _SIGNED_CAP:
        raise ValueError(f"signed orbit capped at dim {_SIGNED_CAP}")
    ints, den = int_scale(v)
    pts = sorted(q for p in _distinct_permutations(map(abs, ints)) for q in _sign_flips(p))
    return _exact(pts, n, f"signed_orbit{_fmt(v)}", den, _signed_max)


def even_signed_orbit(v) -> VertexSet:
    """All permutations combined with sign changes on an even number of
    coordinates: the signed orbit's points whose count of negative entries
    has v's parity, or all of them if v has a zero entry."""
    v = vector(v, EXACT)
    n = len(v)
    if n > _SIGNED_CAP:
        raise ValueError(f"even-signed orbit capped at dim {_SIGNED_CAP}")
    ints, den = int_scale(v)
    want = sum(e < 0 for e in ints) % 2 if all(ints) else None
    pts = sorted(q for p in _distinct_permutations(map(abs, ints)) for q in _sign_flips(p)
                 if want is None or sum(e < 0 for e in q) % 2 == want)
    return _exact(pts, n, f"even_signed_orbit{_fmt(v)}", den, _even_signed_max)


def mgon_orbit(m: int) -> VertexSet:
    """Vertices of the regular m-gon centered at the origin with a vertex
    at (1,0); float backend."""
    if m < 3:
        raise ValueError("an m-gon needs m >= 3")
    seen = {}
    for k in range(m):
        p = (cos(2 * pi * k / m), sin(2 * pi * k / m))
        # bucket to 1e-9 before dedup, mirroring float comparison semantics
        seen.setdefault(tuple(round(e, 9) for e in p), p)
    return VertexSet(2, tuple(sorted(seen.values())), f"mgon_orbit({m})", FLOAT)


def huffman_profiles(n: int):
    """Non-decreasing leaf-depth multisets of full binary trees with n
    leaves: the multisets d with sum(2^-d_i) = 1, exactly, counted in
    units of 2^-(n-1), the least weight."""
    if not 2 <= n <= _HUFFMAN_CAP:
        raise ValueError(f"leaf count must be in 2..{_HUFFMAN_CAP}")
    out = []
    acc = []

    def rec(slots, min_depth, budget):
        if slots == 0:
            if budget == 0:
                out.append(tuple(acc))
            return
        for d in range(min_depth, n):
            w = 1 << (n - 1 - d)
            if w > budget:
                continue
            if slots * w < budget:
                break  # deeper leaves only shrink the achievable total
            acc.append(d)
            rec(slots - 1, d, budget - w)
            acc.pop()

    rec(n, 1, 1 << (n - 1))
    return out


def huffman_vectors(n: int) -> VertexSet:
    """Leaf-depth vectors of full binary trees with n labelled leaves:
    depth profiles enumerated by the exact depth-weight identity, then
    expanded to all distinct labelings on ints and made exact once.  Its
    maximiser takes the best rearrangement of each profile."""
    profiles = huffman_profiles(n)

    def maximiser(c, v) -> tuple:
        best = (_rearrangement_max(c, d) for d in profiles)
        return max(best, key=lambda d: sum(map(mul, c, d)))

    pts = sorted(p for profile in profiles for p in _distinct_permutations(profile))
    return _exact(pts, n, f"huffman_vectors({n})", 1, maximiser)


def parity_vertices(n: int, parity: str) -> VertexSet:
    """All 0/1 vectors of length n whose coordinate sum is odd or even."""
    if n > _PARITY_CAP:
        raise ValueError(f"parity enumeration capped at dim {_PARITY_CAP}")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    want = 1 if parity == "odd" else 0

    def maximiser(c, v) -> tuple:
        # every positive c_i, then the cheapest flip if the parity is wrong
        x = [1 if ci > 0 else 0 for ci in c]
        if sum(x) % 2 != want:
            i = min(range(n), key=lambda i: abs(c[i]))
            x[i] = 1 - x[i]
        return tuple(x)

    pts = [bits for bits in itertools.product((0, 1), repeat=n) if sum(bits) % 2 == want]
    return _exact(pts, n, f"parity_vertices({n},{parity})", 1, maximiser)


def _completion_times(ints, order) -> tuple:
    """Each job's completion time when the jobs run in ``order``."""
    out = [0] * len(ints)
    for job, t in zip(order, itertools.accumulate(map(ints.__getitem__, order))):
        out[job] = t
    return tuple(out)


def completion_time_vertices(p) -> VertexSet:
    """Completion-time vectors over all job orders: job j's entry is the
    total processing time scheduled up to and including j.

    With no negative time, its maximiser is Smith's rule (W. E. Smith, 1956)
    on the scaled times: jobs by c_j / p_j ascending, where a job of time 0
    goes first when c_j < 0 and last when c_j > 0.  It reads p, not v: the
    completion times do not give back a job of time 0."""
    p = vector(p, EXACT)
    n = len(p)
    if n > _PERM_CAP:
        raise ValueError(f"completion-time orbit capped at dim {_PERM_CAP}")
    ints, den = int_scale(p)

    def ratio(c, j):
        if ints[j]:
            return Fraction(c[j], ints[j])
        return inf if c[j] > 0 else -inf if c[j] < 0 else 0

    def maximiser(c, v) -> tuple:
        return _completion_times(ints, sorted(range(n), key=lambda j: ratio(c, j)))

    pts = {_completion_times(ints, order) for order in itertools.permutations(range(n))}
    return _exact(sorted(pts), n, f"completion_time_vertices{_fmt(p)}", den,
                  None if min(ints, default=0) < 0 else maximiser)
