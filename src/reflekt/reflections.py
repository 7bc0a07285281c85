"""Reflection relations, canonical preimages, and canonical-form helpers.

A reflection relation for a nonzero normal ``a`` and offset ``beta`` pairs a
point x of the halfspace <a,x> <= beta with every point of the segment from
x to its mirror image across the boundary hyperplane.  Its body consists of
n-1 equations forcing y - x parallel to a plus exactly two inequalities

    <a,x> - <a,y> <= 0      and      <a,x> + <a,y> <= 2*beta,

so chains of these relations contribute two inequalities each to a composed
formulation.  The canonical preimage keeps a point that already satisfies
the halfspace and reflects one that does not; preimage chains apply the
*last* relation's preimage first, matching function-composition order.

On exact data the domain test and the reflection run on integers: the
normal and offset are scaled once to an integer pair (a, beta) and a point
travels as a :class:`~reflekt.numeric.ScaledPoint` (numerators X over a
denominator D).  The point is in the domain when <a,X> <= beta*D, and its
mirror image is X + (2(beta*D - <a,X>) / <a,a>) a over D, so D grows only
when <a,a> does not divide 2(beta*D - <a,X>), as the preimage contract of
:class:`~reflekt.polyhedra.PolyhedralRelation` allows.  An exact spec takes
exact points only: a float coordinate raises
:class:`~reflekt.numeric.BackendError`.  Float specs, which only the m-gon /
dihedral chain builds, keep the tolerance tests of :mod:`reflekt.numeric`.
The sign-change, transposition and even-sign-pair spec constructors below
are integral by nature and always exact; :func:`reflection_relation` turns
any spec into its relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .numeric import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    MINUS_ONE,
    ONE,
    ZERO,
    DimensionError,
    ScaledPoint,
    dot,
    int_scale,
    leq,
    orthogonal_complement_basis,
    sparse_row,
    to_scalar,
    vec_add,
    vec_scale,
    vector,
)
from .polyhedra import AffineMap, HPolyhedron, PolyhedralRelation


@dataclass(frozen=True)
class ReflectionSpec:
    """Normal/offset pair (a, beta); positive rescaling defines the same
    relation, so no normalization is ever applied.  Both enter ``backend``
    through :func:`~reflekt.numeric.to_scalar` (a float in an exact spec
    raises :class:`~reflekt.numeric.BackendError`), and a zero normal
    raises ValueError."""

    a: tuple
    beta: object
    backend: str = EXACT
    _int: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(to_scalar(e, self.backend) for e in self.a)
        if all(e == 0 for e in a):
            raise ValueError("reflection normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta", to_scalar(self.beta, self.backend))

    def int_form(self):
        """``(nonzeros, beta, aa)``: (a, beta) scaled to integers by the
        least common denominator of its entries, with the normal as sparse
        ``(index, coefficient)`` pairs and ``aa = <a,a>``.  Exact backend
        only; built on first use and cached."""
        if self._int is None:
            ints, _ = int_scale(list(self.a) + [self.beta])
            nonzeros = tuple((j, c) for j, c in enumerate(ints[:-1]) if c)
            form = (nonzeros, ints[-1], sum(c * c for _, c in nonzeros))
            object.__setattr__(self, "_int", form)
        return self._int

    @property
    def dim(self) -> int:
        return len(self.a)

    def in_domain(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Whether x lies in the halfspace <a,x> <= beta."""
        if self.backend == FLOAT:
            return leq(dot(self.a, x), self.beta, tol)
        return _slack(self.int_form(), _scaled(self, x)) >= 0


def _scaled(spec: ReflectionSpec, x) -> ScaledPoint:
    """An exact point as a ScaledPoint; a float coordinate raises BackendError."""
    if len(x) != spec.dim:
        raise DimensionError("point dimension != reflection dimension")
    return ScaledPoint.of(vector(x, EXACT))


def _slack(form, p: ScaledPoint) -> int:
    """beta*D - <a,X>: nonnegative exactly when p is in the domain."""
    nonzeros, beta, _ = form
    nums = p.nums
    return beta * p.den - sum(c * nums[j] for j, c in nonzeros)


def _mirror(form, p: ScaledPoint, slack: int) -> ScaledPoint:
    """Mirror image of p, given its slack; D grows by <a,a>/g when
    g = gcd(2*slack, <a,a>) is smaller than <a,a>."""
    nonzeros, _, aa = form
    step, rest = divmod(2 * slack, aa)
    nums, den = p
    if rest:
        g = gcd(2 * slack, aa)
        step, grow = 2 * slack // g, aa // g
        nums = [e * grow for e in nums]
        den *= grow
    else:
        nums = list(nums)
    for j, c in nonzeros:
        nums[j] += step * c
    return ScaledPoint(tuple(nums), den)


def reflect_point(spec: ReflectionSpec, x):
    """Mirror image of x across the hyperplane <a,x> = beta.

    An involution that fixes the hyperplane pointwise and satisfies
    <a, reflect(x)> = 2*beta - <a,x>.
    """
    if spec.backend == FLOAT:
        if len(x) != spec.dim:
            raise DimensionError("point dimension != reflection dimension")
        a = spec.a
        factor = 2 * (spec.beta - dot(a, x)) / dot(a, a)
        return vec_add(x, vec_scale(factor, a))
    form = spec.int_form()
    p = _scaled(spec, x)
    return _mirror(form, p, _slack(form, p)).fractions()


def reflection_map(spec: ReflectionSpec) -> AffineMap:
    """The reflection as an affine map (I - 2 a a^T / <a,a>) x + 2 beta a / <a,a>."""
    a = spec.a
    n = spec.dim
    aa = dot(a, a)
    rows = []
    for i in range(n):
        row = list(vec_scale(-2 * a[i] / aa, a))
        row[i] = row[i] + (ONE if spec.backend == EXACT else 1.0)
        rows.append(tuple(row))
    t = vec_scale(2 * spec.beta / aa, a)
    return AffineMap(tuple(rows), t, spec.backend)


def canonical_preimage(spec: ReflectionSpec, y, tol: float = DEFAULT_TOL):
    """y itself when it satisfies the halfspace, its reflection otherwise;
    the output always lies in the halfspace and its fiber contains y.

    A :class:`ScaledPoint` input gives a ScaledPoint output; other exact
    input is scaled to one for the step and returned as Fractions.  An
    exact spec raises :class:`~reflekt.numeric.BackendError` for a float
    point; only a float spec compares within ``tol``.
    """
    if isinstance(y, ScaledPoint):
        return _preimage_step(spec, y)
    if spec.backend == FLOAT:
        if spec.in_domain(y, tol):
            return tuple(y)
        return reflect_point(spec, y)
    p = _scaled(spec, y)
    x = _preimage_step(spec, p)
    return tuple(y) if x is p else x.fractions()


def _preimage_step(spec: ReflectionSpec, p: ScaledPoint) -> ScaledPoint:
    form = spec.int_form()
    slack = _slack(form, p)
    return p if slack >= 0 else _mirror(form, p, slack)


def reflection_relation(spec: ReflectionSpec) -> PolyhedralRelation:
    """Type (n, n) relation whose fiber over a domain point x is the segment
    conv{x, reflect(x)}; empty over points outside the halfspace.

    Generated by the identity map and :func:`reflection_map`, which only
    :func:`~reflekt.verify.check_affine_generators` callers build.  Uses n-1
    explicit difference equations from a complement basis rather than an
    auxiliary scalar variable, which keeps block sizes equal to n and makes
    the two-inequalities-per-relation count literal.  An exact body is
    written from a's nonzeros (:func:`_exact_rows`); a float one from
    :func:`~reflekt.numeric.orthogonal_complement_basis`, bit for bit.  The
    relation keeps ``spec`` as its step: its fiber is y = x + lambda*a,
    which the exact checker writes as one column lambda with the rows
    -<a,a>lambda <= 0 and 2<a,x> + <a,a>lambda <= 2*beta.
    """
    n, a, backend = spec.dim, spec.a, spec.backend
    if backend == FLOAT:
        zero = 0.0
        C = tuple(tuple(-e for e in brow) + brow for brow in orthogonal_complement_basis(a))
        A = (a + tuple(-e for e in a), a + a)  # <a,x> <= <a,y>, <a,y> <= 2 beta - <a,x>
    else:
        zero, (C, A) = ZERO, _exact_rows(a)
    body = HPolyhedron(2 * n, A, (zero, 2 * spec.beta), C, (zero,) * len(C), backend)

    def preimage(y, tol=DEFAULT_TOL, _spec=spec):
        return canonical_preimage(_spec, y, tol)

    return PolyhedralRelation(n, n, body, preimage=preimage, step=("reflection", spec))


def _exact_rows(a) -> tuple:
    """``(C, A)`` of the exact body over (x, y): for each j other than the
    first nonzero p of a, the complement row a_j e_p - a_p e_j with its
    first nonzero made positive (the rows of
    :func:`~reflekt.numeric.orthogonal_complement_basis`), as -row on x and
    row on y; then (a, -a) and (a, a).  Each row is written from its
    nonzeros over one shared zero, and each nonzero of a is negated once."""
    n = len(a)
    na = tuple(-c if c else ZERO for c in a)
    p = next(j for j, c in enumerate(a) if c)
    ap, nap = a[p], na[p]
    C = []
    for j, aj in enumerate(a):
        if j == p:
            continue
        # the normalised row is u at p and v at j; x's part is -u and -v
        if aj > 0:
            pairs = ((p, na[j]), (j, ap), (n + p, aj), (n + j, nap))
        elif aj < 0:
            pairs = ((p, aj), (j, nap), (n + p, na[j]), (n + j, ap))
        else:  # u = 0, v = |a_p|
            pairs = ((j, nap), (n + j, ap)) if ap > 0 else ((j, ap), (n + j, nap))
        C.append(sparse_row(2 * n, pairs))
    return tuple(C), (a + na, a + a)


def sign_spec(k: int, n: int) -> ReflectionSpec:
    """Normal -e_k, offset 0: domain x_k >= 0, reflection flips coordinate k."""
    if not 1 <= k <= n:
        raise IndexError(f"coordinate {k} out of range 1..{n}")
    return ReflectionSpec(sparse_row(n, ((k - 1, MINUS_ONE),)), ZERO)


def transposition_spec(k: int, ell: int, n: int) -> ReflectionSpec:
    """Normal e_k - e_ell, offset 0: domain x_k <= x_ell, reflection swaps
    coordinates k and ell."""
    if k == ell:
        raise ValueError("transposition needs two distinct coordinates")
    if not (1 <= k <= n and 1 <= ell <= n):
        raise IndexError(f"coordinates ({k},{ell}) out of range 1..{n}")
    return ReflectionSpec(sparse_row(n, ((k - 1, ONE), (ell - 1, MINUS_ONE))), ZERO)


def even_sign_pair_specs(k: int, ell: int, n: int):
    """Ordered pair of specs (e_k - e_ell, 0) then (-e_k - e_ell, 0).

    Chained as two consecutive relations; the composed canonical preimage
    (second spec's first, then the first's) lands in {|y_k| <= y_ell}.
    """
    if k == ell:
        raise ValueError("pair needs two distinct coordinates")
    second = ReflectionSpec(sparse_row(n, ((k - 1, MINUS_ONE), (ell - 1, MINUS_ONE))), ZERO)
    return transposition_spec(k, ell, n), second


def apply_preimage_chain(chain: Iterable, y, tol: float = DEFAULT_TOL):
    """Fold canonical preimages over a chain of :class:`ReflectionSpec`
    given in composition (application) order of the chain itself: the
    *last* reflection's preimage is applied first.  A :class:`ScaledPoint`
    walks the whole chain as one."""
    out = y if isinstance(y, ScaledPoint) else tuple(y)
    for spec in reversed(list(chain)):
        out = canonical_preimage(spec, out, tol)
    return out

