"""Scalar backends and the dense linear algebra shared by every module.

Two numeric backends live behind one scalar vocabulary:

* ``EXACT`` -- arbitrary-precision rationals, the default everywhere.
  Arithmetic never rounds, comparisons are exact.  Scalars are
  :class:`fractions.Fraction` at the API and JSON boundaries and in LP
  results.  The certification hot paths -- containment, canonical
  preimages, brute-force support maxima and row reduction (:func:`rref`,
  which also takes plain ``int`` input) -- scale their data once to
  ``int`` (:func:`int_scale`, :class:`ScaledPoint`) and never build a
  Fraction per operation.
* ``FLOAT`` -- binary64 floats, used only where the data is irrational:
  the regular m-gon / dihedral chain, whose normals are (-sin phi, cos phi).
  Comparisons use a symmetric tolerance: ``a <= b`` means ``a - b <= tol``.
  Row reduction and the simplex pivot at ``DEFAULT_TOL`` and take no
  tolerance.

The backend is a property of the data, never an argument of exact-only
code.  A computation never mixes backends; mixing raises
:class:`BackendError`, and every scalar enters a backend through
:func:`to_scalar`.  Vectors are tuples of scalars, matrices are tuples of
row tuples.  Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, inf, isfinite
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence, Union

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOL = 1e-9

Scalar = Union[Fraction, float]
Vector = tuple
Matrix = tuple

# the exact constants every written row shares, so none is made per entry
ZERO, ONE, MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


class BackendError(TypeError):
    """Raised when exact and float data meet in one computation."""


class DimensionError(ValueError):
    """Raised on shape mismatches."""


class EmptyPolyhedronError(ValueError):
    """Raised when an equation system turns out inconsistent."""


def to_scalar(value, backend: str) -> Scalar:
    """Coerce ``value`` into the given backend: the one way a scalar enters
    one, from the API, a point or a JSON document.

    Exact mode accepts ints, Fractions and rational strings; floats are
    rejected because ``Fraction(0.1)`` silently captures binary noise.
    Float mode accepts finite numbers and numeric or ``'p/q'`` strings.
    NaN, +-inf, values past the float range, a zero denominator (``'1/0'``)
    and anything else (``None``, a list) raise :class:`BackendError`.
    """
    if backend == EXACT:
        if isinstance(value, float):
            raise BackendError(
                f"float {value!r} cannot enter the exact backend; "
                "pass a Fraction, int or 'p/q' string"
            )
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise BackendError(f"{value!r} has a zero denominator") from None
        raise BackendError(f"cannot coerce {type(value).__name__} to a rational")
    if backend == FLOAT:
        try:
            if isinstance(value, (int, float, Fraction)):
                out = float(value)
            elif isinstance(value, str):
                out = float(Fraction(value)) if "/" in value else float(value)
            else:
                raise BackendError(f"cannot coerce {type(value).__name__} to a float")
        except OverflowError:
            out = inf
        except ZeroDivisionError:
            raise BackendError(f"{value!r} has a zero denominator") from None
        if isfinite(out):
            return out
        raise BackendError(f"{value!r} is not a finite float")
    raise BackendError(f"unknown backend {backend!r}")


def join_backends(a: str, b: str) -> str:
    if a != b:
        raise BackendError(f"backend mix: {a!r} vs {b!r}")
    return a


def vector(values: Iterable, backend: str) -> Vector:
    return tuple(to_scalar(v, backend) for v in values)


def matrix(rows: Iterable[Iterable], backend: str) -> Matrix:
    out = tuple(vector(r, backend) for r in rows)
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise DimensionError("inconsistent row width")
    return out


def zero_vector(n: int, backend: str) -> Vector:
    return (ZERO if backend == EXACT else 0.0,) * n


def unit_vector(i: int, n: int, backend: str) -> Vector:
    """0-based standard basis vector e_i in dimension n."""
    row = list(zero_vector(n, backend))
    row[i] = ONE if backend == EXACT else 1.0
    return tuple(row)


def sparse_row(n: int, pairs) -> Vector:
    """The exact row of width n with the ``(index, value)`` pairs as its
    nonzeros, every other entry the shared :data:`ZERO`."""
    row = [ZERO] * n
    for j, v in pairs:
        row[j] = v
    return tuple(row)


def identity_matrix(n: int, backend: str) -> Matrix:
    return tuple(unit_vector(i, n, backend) for i in range(n))


def leq(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    """a <= b, with the float backend allowing slack of ``tol``."""
    if isinstance(a, float) or isinstance(b, float):
        return a - b <= tol
    return a <= b


def scalars_eq(a: Scalar, b: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= tol
    return a == b


def vectors_eq(u: Sequence, v: Sequence, tol: float = DEFAULT_TOL) -> bool:
    return len(u) == len(v) and all(scalars_eq(a, b, tol) for a, b in zip(u, v))


def dot(u: Sequence, v: Sequence):
    """The sum of products, added left to right: ``sum()`` of floats is
    compensated since Python 3.12, which would move float results' bits."""
    if len(u) != len(v):
        raise DimensionError(f"dot: {len(u)} vs {len(v)}")
    return reduce(add, map(mul, u, v), 0)


def vec_add(u: Sequence, v: Sequence) -> Vector:
    if len(u) != len(v):
        raise DimensionError(f"vec_add: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    if len(u) != len(v):
        raise DimensionError(f"vec_sub: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> Vector:
    return tuple(c * a for a in u)


def mat_vec(M: Sequence, x: Sequence) -> Vector:
    return tuple(dot(row, x) for row in M)


def int_scale(values: Iterable):
    """Scale rationals (ints or Fractions) to integers over their least
    common denominator D; returns ``(ints, D)`` with ``ints[i] = values[i] * D``.

    Used for constraint rows, where any positive multiple describes the
    same halfspace, and for points, where D is kept as the denominator.
    """
    values = list(values)
    den = 1
    for f in values:
        d = f.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return [f.numerator * (den // f.denominator) for f in values], den


class ScaledPoint(NamedTuple):
    """An exact point as integer numerators over one positive common
    denominator: coordinate i is ``nums[i] / den``."""

    nums: tuple
    den: int

    @classmethod
    def of(cls, x: Iterable) -> "ScaledPoint":
        nums, den = int_scale(x)
        return cls(tuple(nums), den)

    def fractions(self) -> Vector:
        den = self.den
        return tuple(Fraction(e, den) for e in self.nums)


def rref(M: Sequence):
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where ``pivots`` are 0-based pivot column
    indices.  Rational entries (ints or Fractions) are eliminated exactly on
    integers and R is returned as Fractions; float entries use partial
    pivoting and skip a column whose entries are all within ``DEFAULT_TOL``
    of zero.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if not any(isinstance(e, float) for r in M for e in r):
        return _rref_exact(M, n)
    rows = [list(r) for r in M]
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        best, best_val = -1, DEFAULT_TOL
        for i in range(r, m):
            if abs(rows[i][c]) > best_val:
                best, best_val = i, abs(rows[i][c])
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [e / piv for e in rows[r]]
        lead = rows[r]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def _primitive(row: dict) -> dict:
    """Divide a sparse integer row by the gcd of its entries (if any)."""
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _rref_exact(M: Sequence, n: int):
    """Fraction-free Gauss-Jordan on sparse integer rows.

    Each row is scaled once to integers and kept as ``{column: value}`` over
    its nonzeros.  A column is eliminated from every other row by
    ``piv*row - f*lead`` (both divided by gcd(piv, f)), and each result is
    divided by the gcd of its entries, so entries stay small.  The pivot of a
    column is the sparsest row that has no pivot yet; the reduced row echelon
    form is unique, so the choice changes only the cost.  Rows are divided by
    their leading entries once, when R is emitted.
    """
    rows = []
    for r in M:
        nz = [(j, e) for j, e in enumerate(r) if e]
        ints, _ = int_scale(e for _, e in nz)
        rows.append(_primitive({j: k for (j, _), k in zip(nz, ints)}))
    unpivoted = [i for i, row in enumerate(rows) if row]
    pivot_rows = []
    for c in range(n):
        if not unpivoted:
            break
        cand = [i for i in unpivoted if c in rows[i]]
        if not cand:
            continue
        p = min(cand, key=lambda i: len(rows[i]))
        unpivoted.remove(p)
        lead = rows[p]
        piv = lead[c]
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == p:
                continue
            g = gcd(piv, f)
            a, b = piv // g, f // g
            new = {j: a * v for j, v in row.items()} if a != 1 else row
            for j, v in lead.items():
                w = new.get(j, 0) - b * v
                if w:
                    new[j] = w
                else:
                    del new[j]
            rows[i] = _primitive(new)
        pivot_rows.append((c, p))
    zero = Fraction(0)
    R = []
    for c, p in pivot_rows:
        row = rows[p]
        piv = row[c]
        out = [zero] * n
        for j, v in row.items():
            out[j] = Fraction(v, piv)
        R.append(tuple(out))
    R.extend([(zero,) * n] * (len(M) - len(R)))
    return tuple(R), tuple(c for c, _ in pivot_rows)


def rank(M: Sequence) -> int:
    return len(rref(M)[1])


def kernel_dim(M: Sequence) -> int:
    """Dimension of {x : Mx = 0}, i.e. cols(M) - rank(M)."""
    if not M:
        return 0
    return len(M[0]) - rank(M)


def affine_solution_space(C: Sequence, d: Sequence, backend: str, dim: int | None = None):
    """Solve ``C z = d`` over ``backend``: returns ``(particular,
    nullspace_basis)``.

    ``particular`` is ``None`` when the system is inconsistent.  Free
    variables are set to zero in the particular solution.  ``dim`` is only
    needed when the system has no rows at all.  Float systems are reduced
    by :func:`rref` at ``DEFAULT_TOL``.
    """
    if not C:
        if dim is None:
            raise DimensionError("empty system needs an explicit dimension")
        return zero_vector(dim, backend), list(identity_matrix(dim, backend))
    n = len(C[0])
    aug = tuple(tuple(row) + (rhs,) for row, rhs in zip(C, d))
    R, pivots = rref(aug)
    if pivots and pivots[-1] == n:
        return None, []
    part = list(zero_vector(n, backend))
    for i, p in enumerate(pivots):
        part[p] = R[i][n]
    pivot_set = set(pivots)
    one = Fraction(1) if backend == EXACT else 1.0
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = list(zero_vector(n, backend))
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(tuple(v))
    return tuple(part), basis


def orthogonal_complement_basis(a: Sequence) -> Matrix:
    """n-1 independent rows spanning the orthogonal complement of span{a}.

    The rows b_1..b_{n-1} satisfy <b_j, a> = 0 and have rank n-1, so a
    vector v solves <b_j, v> = 0 for all j exactly when v is a multiple
    of a.  Built from the elementary pattern (a_j e_p - a_p e_j) against
    a pivot coordinate p, then sign-normalized so each row's first nonzero
    entry is positive; stays rational in the exact backend.  The rows are
    dense; an exact reflection body writes them from a's nonzeros instead.
    """
    a = tuple(a)
    n = len(a)
    float_mode = any(isinstance(e, float) for e in a)
    if float_mode:
        p = max(range(n), key=lambda i: abs(a[i]))
        if abs(a[p]) == 0.0:
            raise ValueError("zero vector has no complement basis")
    else:
        p = next((i for i in range(n) if a[i] != 0), -1)
        if p < 0:
            raise ValueError("zero vector has no complement basis")
    zero = 0.0 if float_mode else Fraction(0)
    rows = []
    for j in range(n):
        if j == p:
            continue
        row = [zero] * n
        row[p] = a[j]
        row[j] = -a[p]
        lead = next((e for e in row if e != 0), None)
        if lead is not None and lead < 0:
            row = [-e for e in row]
        rows.append(tuple(row))
    return tuple(rows)


def scalar_to_json(x: Scalar):
    """JSON atom for a scalar: exact rationals as strings, floats as floats."""
    if isinstance(x, Fraction):
        return str(x)
    return x

