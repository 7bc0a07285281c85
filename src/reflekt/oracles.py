"""Brute-force vertex enumerators for every target polytope the package
builds; these are the independent ground truth the verifier compares
against, so none of them share code with the constructions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import cos, pi, sin
from typing import Callable, Optional

from .numeric import EXACT, FLOAT, vector

_PERM_CAP = 8
_SIGNED_CAP = 6
_HUFFMAN_CAP = 9
_PARITY_CAP = 16


@dataclass(frozen=True)
class VertexSet:
    """Deduplicated point list with a provenance label; enumeration order is
    deterministic (sorted) so runs are reproducible.

    An orbit may carry a ``maximiser(c, v)``: the point of v's orbit that
    maximises c, found by comparisons and negation alone, so that it works
    on any ordered entries (the verifier passes integer rows).  It is only a
    hint: the verifier uses its answer only once it is found among the
    points and proved optimal."""

    dim: int
    points: tuple
    label: str
    backend: str = EXACT
    maximiser: Optional[Callable] = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)


def _fmt(v) -> str:
    return "(" + ",".join(str(e) for e in v) + ")"


def _finish(points, dim, label, backend=EXACT, maximiser=None):
    if backend == FLOAT:
        # bucket to 1e-9 before dedup, mirroring float comparison semantics
        seen = {}
        for p in points:
            key = tuple(round(e, 9) for e in p)
            seen.setdefault(key, p)
        pts = tuple(sorted(seen.values()))
    else:
        pts = tuple(sorted(set(points)))
    return VertexSet(dim, pts, label, backend, maximiser)


def _distinct_permutations(items):
    """All distinct rearrangements of a multiset, lexicographically."""
    pool = sorted(items)
    n = len(pool)
    counts = {}
    for v in pool:
        counts[v] = counts.get(v, 0) + 1
    values = sorted(counts)
    out = []
    cur = []

    def rec():
        if len(cur) == n:
            out.append(tuple(cur))
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                cur.append(v)
                rec()
                cur.pop()
                counts[v] += 1

    rec()
    return out


def permutation_orbit(v) -> VertexSet:
    """All coordinate permutations of v, deduplicated."""
    v = vector(v, EXACT)
    if len(v) > _PERM_CAP:
        raise ValueError(f"permutation orbit capped at dim {_PERM_CAP}")
    return _finish(_distinct_permutations(v), len(v), f"permutation_orbit{_fmt(v)}",
                   maximiser=_rearrangement_max)


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


def sign_flip_orbit(v) -> VertexSet:
    """All sign-change images of v (no permutations): the vertex candidates
    of a signing."""
    v = vector(v, EXACT)
    n = len(v)
    if n > _PARITY_CAP:
        raise ValueError(f"sign-flip orbit capped at dim {_PARITY_CAP}")
    pts = {
        tuple(s * e for s, e in zip(signs, v))
        for signs in itertools.product((1, -1), repeat=n)
    }
    return _finish(pts, n, f"sign_flip_orbit{_fmt(v)}")


def signed_orbit(v) -> VertexSet:
    """All permutations combined with all sign changes."""
    v = vector(v, EXACT)
    n = len(v)
    if n > _SIGNED_CAP:
        raise ValueError(f"signed orbit capped at dim {_SIGNED_CAP}")
    pts = set()
    for perm in _distinct_permutations(v):
        for signs in itertools.product((1, -1), repeat=n):
            pts.add(tuple(s * e for s, e in zip(signs, perm)))
    return _finish(pts, n, f"signed_orbit{_fmt(v)}", maximiser=_signed_max)


def even_signed_orbit(v) -> VertexSet:
    """All permutations combined with sign changes on an even number of
    coordinates."""
    v = vector(v, EXACT)
    n = len(v)
    if n > _SIGNED_CAP:
        raise ValueError(f"even-signed orbit capped at dim {_SIGNED_CAP}")
    pts = set()
    for perm in _distinct_permutations(v):
        for signs in itertools.product((1, -1), repeat=n):
            if signs.count(-1) % 2 == 0:
                pts.add(tuple(s * e for s, e in zip(signs, perm)))
    return _finish(pts, n, f"even_signed_orbit{_fmt(v)}", maximiser=_even_signed_max)


def mgon_orbit(m: int) -> VertexSet:
    """Vertices of the regular m-gon centered at the origin with a vertex
    at (1,0); float backend."""
    if m < 3:
        raise ValueError("an m-gon needs m >= 3")
    pts = [(cos(2 * pi * k / m), sin(2 * pi * k / m)) for k in range(m)]
    return _finish(pts, 2, f"mgon_orbit({m})", FLOAT)


def huffman_profiles(n: int):
    """Non-decreasing leaf-depth multisets of full binary trees with n
    leaves: the multisets d with sum(2^-d_i) = 1, exactly."""
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
            w = Fraction(1, 2 ** d)
            if w > budget:
                continue
            if slots * w < budget:
                break  # deeper leaves only shrink the achievable total
            acc.append(d)
            rec(slots - 1, d, budget - w)
            acc.pop()

    rec(n, 1, Fraction(1))
    return out


def huffman_vectors(n: int) -> VertexSet:
    """Leaf-depth vectors of full binary trees with n labelled leaves:
    depth profiles enumerated by the exact depth-weight identity, then
    expanded to all distinct labelings on ints and made exact once."""
    pts = {p for profile in huffman_profiles(n) for p in _distinct_permutations(profile)}
    depth = [Fraction(d) for d in range(n)]
    exact = tuple(tuple(depth[d] for d in p) for p in sorted(pts))
    return VertexSet(n, exact, f"huffman_vectors({n})")


def parity_vertices(n: int, parity: str) -> VertexSet:
    """All 0/1 vectors of length n whose coordinate sum is odd or even."""
    if n > _PARITY_CAP:
        raise ValueError(f"parity enumeration capped at dim {_PARITY_CAP}")
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    want = 1 if parity == "odd" else 0
    pts = [
        tuple(Fraction(b) for b in bits)
        for bits in itertools.product((0, 1), repeat=n)
        if sum(bits) % 2 == want
    ]
    return _finish(pts, n, f"parity_vertices({n},{parity})")


def completion_time_vertices(p) -> VertexSet:
    """Completion-time vectors over all job orders: job j's entry is the
    total processing time scheduled up to and including j."""
    p = vector(p, EXACT)
    n = len(p)
    if n > _PERM_CAP:
        raise ValueError(f"completion-time orbit capped at dim {_PERM_CAP}")
    pts = set()
    for order in itertools.permutations(range(n)):
        c = [Fraction(0)] * n
        cum = Fraction(0)
        for job in order:
            cum += p[job]
            c[job] = cum
        pts.add(tuple(c))
    return _finish(pts, n, f"completion_time_vertices{_fmt(p)}")
