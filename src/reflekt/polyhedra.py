"""Geometric core: H-representations, affine maps, polyhedral relations,
and the block composition that turns a base polytope plus a chain of
relations into an extended formulation.

Conventions fixed here once:

* A relation of type (n, m) lives over R^n x R^m; the first n coordinates of
  its body are the input x, the last m the output y.
* A chain (R_1, .., R_r) is stored in application order: the composed system
  is z0 in P, (z_{i-1}, z_i) in R_i, and the projection returns the last
  block.  Canonical preimages walk the chain from the *last* relation to the
  first, on exact data as one :class:`ScaledPoint` (see PolyhedralRelation).
* Block variables are named ``z{i}_{j}`` (block i, 1-based coordinate j);
  equation-eliminated formulations fall back to ``x{j}``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from . import numeric
from .lp import ProjectionChecker
from .numeric import (
    DEFAULT_TOL,
    EXACT,
    ONE,
    BackendError,
    DimensionError,
    ScaledPoint,
    affine_solution_space,
    dot,
    identity_matrix,
    int_scale,
    join_backends,
    kernel_dim,
    leq,
    mat_vec,
    matrix,
    scalars_eq,
    sparse_row,
    to_scalar,
    unit_vector,
    vec_add,
    vector,
    zero_vector,
)


@dataclass(frozen=True)
class HPolyhedron:
    """Ax <= b together with Cx = d; inequality and equation counts are
    tracked separately because the size arithmetic counts inequalities only.

    ``dim`` must be a nonnegative ``int`` and every row ``dim`` wide
    (:class:`~reflekt.numeric.DimensionError` otherwise).  Membership tests
    walk the nonzeros of each row, kept in a sparse copy of the system that
    is built on first use and cached.
    """

    dim: int
    A: tuple = ()
    b: tuple = ()
    C: tuple = ()
    d: tuple = ()
    backend: str = EXACT
    _sparse: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 0:
            raise DimensionError(f"dim {self.dim!r} is not a nonnegative integer")
        for rows, name in ((self.A, "A"), (self.C, "C")):
            for row in rows:
                if len(row) != self.dim:
                    raise DimensionError(f"{name} row width != dim {self.dim}")
        if len(self.A) != len(self.b) or len(self.C) != len(self.d):
            raise DimensionError("matrix/rhs row counts differ")

    def _sparse_system(self):
        # block systems are mostly zeros; membership tests walk nonzeros only
        if self._sparse is None:
            ineq = tuple(
                (tuple((j, c) for j, c in enumerate(row) if c != 0), rhs)
                for row, rhs in zip(self.A, self.b)
            )
            eq = tuple(
                (tuple((j, c) for j, c in enumerate(row) if c != 0), rhs)
                for row, rhs in zip(self.C, self.d)
            )
            object.__setattr__(self, "_sparse", (ineq, eq))
        return self._sparse

    @classmethod
    def from_rows(cls, dim, ineqs=(), eqs=(), backend=EXACT):
        """Build from ``(coeffs, rhs)`` pairs."""
        A = matrix((r for r, _ in ineqs), backend)
        b = vector((v for _, v in ineqs), backend)
        C = matrix((r for r, _ in eqs), backend)
        d = vector((v for _, v in eqs), backend)
        return cls(dim, A, b, C, d, backend)

    @classmethod
    def point(cls, coords, backend=EXACT):
        """The single point {coords}, written as dim equations."""
        coords = vector(coords, backend)
        n = len(coords)
        eye = identity_matrix(n, backend)
        return cls(n, (), (), eye, coords, backend)

    @classmethod
    def box(cls, lower, upper, backend=EXACT):
        """Axis-aligned box lower <= x <= upper (2n inequalities)."""
        lower = vector(lower, backend)
        upper = vector(upper, backend)
        n = len(lower)
        rows, rhs = [], []
        eye = identity_matrix(n, backend)
        for i in range(n):
            rows.append(eye[i])
            rhs.append(upper[i])
            rows.append(tuple(-e for e in eye[i]))
            rhs.append(-lower[i])
        return cls(n, tuple(rows), tuple(rhs), (), (), backend)

    @property
    def n_inequalities(self) -> int:
        return len(self.A)

    @property
    def n_equations(self) -> int:
        return len(self.C)

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        """Membership of the point x, a tuple of scalars, row by row: exactly
        on an exact polyhedron, which takes x through
        :func:`~reflekt.numeric.vector` (so a float point raises
        :class:`~reflekt.numeric.BackendError`), and within ``tol`` on a
        float one.
        """
        if len(x) != self.dim:
            raise DimensionError("point dimension mismatch")
        if self.backend == EXACT:
            x = vector(x, EXACT)
        ineq, eq = self._sparse_system()
        for row, rhs in ineq:
            if not leq(sum(c * x[j] for j, c in row), rhs, tol):
                return False
        for row, rhs in eq:
            if not scalars_eq(sum(c * x[j] for j, c in row), rhs, tol):
                return False
        return True


@dataclass(frozen=True)
class AffineMap:
    """x -> Mx + t with strict dimension checking."""

    M: tuple
    t: tuple
    backend: str = EXACT

    def __post_init__(self):
        if len(self.M) != len(self.t):
            raise DimensionError("offset length != output dimension")

    @classmethod
    def from_rows(cls, M, t, backend=EXACT):
        return cls(matrix(M, backend), vector(t, backend), backend)

    @classmethod
    def identity(cls, n, backend=EXACT):
        return cls(identity_matrix(n, backend), zero_vector(n, backend), backend)

    @property
    def in_dim(self) -> int:
        return len(self.M[0]) if self.M else 0

    @property
    def out_dim(self) -> int:
        return len(self.M)

    def apply(self, x):
        if len(x) != self.in_dim:
            raise DimensionError(f"map expects dim {self.in_dim}, got {len(x)}")
        return vec_add(mat_vec(self.M, x), self.t)


def _graph_preimage(f: AffineMap):
    """The solution of f(x) = y with free coordinates at zero, or None when
    y is not in the image of f.

    f is factored on the first call: rref([M | I]) = [R | E] has EM = R, so
    x is E(y - t) on the pivot columns of R, and y is in the image exactly
    when E(y - t) is zero past the rank.  q(E | Et) is scaled once to
    integers, and (Y, D) maps to q(EY - Et D) over qD.
    """
    n, m = f.in_dim, f.out_dim
    factored = []

    def factor():
        # numeric.rref is looked up per call, so a wrapper installed on the module sees it
        R, pivots = numeric.rref([row + unit_vector(i, m, EXACT) for i, row in enumerate(f.M)])
        ints, q = int_scale(e for row in R for e in row[n:] + (dot(row[n:], f.t),))
        rows = [ints[i : i + m + 1] for i in range(0, len(ints), m + 1)]
        return [p for p in pivots if p < n], rows, q

    def preimage(y, tol: float = DEFAULT_TOL):
        if not factored:
            factored.append(factor())
        pivots, rows, q = factored[0]
        if not isinstance(y, ScaledPoint):
            if len(y) != m:
                raise DimensionError(f"map has output dim {m}, got {len(y)}")
            x = preimage(ScaledPoint.of(y))
            return None if x is None else x.fractions()
        Y, D = y
        vals = [dot(row[:m], Y) - row[m] * D for row in rows]
        if any(vals[len(pivots) :]):
            return None
        x = dict(zip(pivots, vals))
        return ScaledPoint(tuple(x.get(j, 0) for j in range(n)), q * D)

    return preimage


@dataclass(frozen=True)
class PolyhedralRelation:
    """A non-empty polyhedron over R^n x R^m acting on sets by
    R(X) = {y : (x, y) in R for some x in X}.

    ``preimage(y, tol)`` maps y to a canonical x whose fiber contains y, or
    to None.  On exact data it takes a :class:`ScaledPoint` or a tuple of
    rationals and returns the same kind; a ScaledPoint output's denominator
    is a multiple of the input's, which :func:`_witness_blocks` relies on.
    Emptiness is checked lazily by the LP layer, never at construction.
    Affinely generated fibers are a property, not a part, of a relation:
    :func:`~reflekt.verify.check_affine_generators` tests claimed maps.

    ``step`` is the step the body was written from, as ``(kind, data)``:
    ``("reflection", spec)``, ``("map", f)`` for the graph of f, or
    ``("box", k)`` for the lift x -> (x, u) with u in [0,1]^k.  The
    checker of an exact chain whose every relation keeps one parametrises
    Q from the steps (:class:`~reflekt.lp.ProjectionChecker`); a relation
    built from a bare body has none.
    """

    n: int
    m: int
    body: HPolyhedron
    preimage: Optional[Callable] = None
    step: Optional[tuple] = None

    def __post_init__(self):
        if self.body.dim != self.n + self.m:
            raise DimensionError("body dimension != n + m")

    @property
    def backend(self) -> str:
        return self.body.backend


def graph_relation(f: AffineMap) -> PolyhedralRelation:
    """The relation {(x, y) : y = f(x)}: pure equations, no inequalities.
    Graph relations are exact; a float map raises BackendError.  Row i,
    -M_i x + y_i = t_i, is written from M_i's nonzeros over one shared
    zero, so no zero of M is negated."""
    if f.backend != EXACT:
        raise BackendError("graph relations are exact; got a float map")
    n, m = f.in_dim, f.out_dim
    if any(len(row) != n for row in f.M):
        raise DimensionError("inconsistent row width")
    C = tuple(
        sparse_row(n + m, [(j, -to_scalar(e, EXACT)) for j, e in enumerate(row) if e] + [(n + i, ONE)])
        for i, row in enumerate(f.M)
    )
    body = HPolyhedron(n + m, (), (), C, vector(f.t, EXACT))
    return PolyhedralRelation(n, m, body, preimage=_graph_preimage(f), step=("map", f))


def deltas(rel: PolyhedralRelation):
    """Fiber dimensions (delta1, delta2) of the relation's affine hull.

    The affine hull is taken to be the body's equation subsystem; for every
    relation this package constructs (reflection relations, graphs of affine
    maps) the equations do define the affine hull, so the computation is
    exact.  Relations whose affine hull is further cut by inequalities are
    outside this contract.
    """
    if not rel.body.C:
        return rel.m, rel.n
    x_block = tuple(row[: rel.n] for row in rel.body.C)
    y_block = tuple(row[rel.n :] for row in rel.body.C)
    return kernel_dim(y_block), kernel_dim(x_block)


def _step_deltas(rel: PolyhedralRelation):
    """:func:`deltas` as the relation's step fixes them: (1, 1) for a
    reflection, (k, 0) for a box lift of width k, both with no rank
    computed, and (0, n - rank M) for the graph of x -> Mx + t on R^n;
    other relations are read off the body."""
    kind, data = rel.step or (None, None)
    if kind == "reflection":
        return 1, 1
    if kind == "box":
        return data, 0
    if kind == "map":
        return 0, data.in_dim - numeric.rank(data.M)
    return deltas(rel)


@dataclass(frozen=True)
class SizeLedger:
    """Per-formulation size accounting, as :attr:`ExtendedFormulation.ledger`
    reads it: the first three counts are read off Q (for a composed
    formulation ``inequalities`` is the base count plus one summand per
    relation), and ``reduced_variable_bound`` is min(k0 + sum delta1,
    kr + sum delta2), the one count Q cannot show.
    """

    raw_variables: int
    inequalities: int
    equations: int
    reduced_variable_bound: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False, frozen=True)
class ExtendedFormulation:
    """A block-structured polyhedron Q plus the projection onto its last
    block and the fiber-dimension bound on its free variables; the size
    :attr:`ledger` reads every other count off Q.

    ``base`` and ``relations`` retain the construction provenance when
    available.  ``steps`` are the relations' steps in chain order, set by
    :func:`compose_extension` alone, on both backends, when every relation
    keeps one, else None.  With them membership queries read a witness off
    canonical preimages before falling back to the LP, and on exact data
    :meth:`parametrised` writes one column per reflection.  A formulation
    is frozen; ``steps`` and the cached checker are not init fields, so a
    :func:`dataclasses.replace` copy has neither.  ``block_dims`` is None
    once the block structure has been destroyed (after equation
    elimination), else nonnegative ``int``s summing to Q.dim; every
    projection row has Q.dim entries, and ``reduced_variable_bound`` is a
    nonnegative ``int`` (:class:`~reflekt.numeric.DimensionError`
    otherwise).
    """

    Q: HPolyhedron
    projection: AffineMap
    reduced_variable_bound: int
    block_dims: Optional[tuple] = None
    base: Optional[HPolyhedron] = None
    relations: Optional[tuple] = None
    label: str = ""
    steps: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _checker: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        bound, dims, dim = self.reduced_variable_bound, self.block_dims, self.Q.dim
        if type(bound) is not int or bound < 0:
            raise DimensionError(f"reduced variable bound {bound!r} is not a nonnegative integer")
        if any(len(row) != dim for row in self.projection.M):
            raise DimensionError(f"projection row width != Q dim {dim}")
        if dims is not None and (
            any(type(k) is not int or k < 0 for k in dims) or sum(dims) != dim
        ):
            raise DimensionError(
                f"block dims {dims} are not nonnegative integers summing to Q dim {dim}"
            )

    @property
    def backend(self) -> str:
        return self.Q.backend

    def parametrised(self):
        """The reduced system's one writer, or None when the base's
        equations are inconsistent.  On exact data with :attr:`steps` the
        input is the chain's base and steps; otherwise Q itself is the base
        and its projection one graph step.  Only the base's equations are
        solved here, as part + N w (N's columns in ``basis``).  Returns
        ``(n, part, basis, write)``: n columns, the base's first, then each
        step's in chain order (one lambda per reflection, k per box lift of
        width k, none per map), as :func:`_witness_blocks` reads u; and
        ``write()``, which writes the rows, on integers on exact data
        (:func:`_int_system`), else as float ``(A, b, M, t)`` substituted
        over each row's nonzeros in coordinate order (:func:`_substituted`).
        """
        if self.steps is None or self.backend != EXACT:
            base, steps = self.Q, (("map", self.projection),)
        else:
            base, steps = self.base, self.steps
        part, basis = affine_solution_space(base.C, base.d, dim=base.dim, backend=base.backend)
        if part is None:
            return None
        n = len(basis) + sum(1 if kind == "reflection" else data if kind == "box" else 0
                             for kind, data in steps)
        if self.backend == EXACT:
            return n, part, basis, lambda: _int_system(base, steps, part, basis)
        T = [{k: col[j] for k, col in enumerate(basis) if col[j]} for j in range(len(part))]

        def write():  # z = part + N w substituted into Q's rows and projection
            A, M = ([_substituted(enumerate(row), part, T, 0.0) for row in rows]
                    for rows in (base.A, self.projection.M))
            return (tuple(tuple(lhs.get(k, 0.0) for k in range(n)) for lhs, _ in A),
                    tuple(rhs - at_s for (_, at_s), rhs in zip(A, base.b)),
                    tuple(tuple(lhs.get(k, 0.0) for k in range(n)) for lhs, _ in M),
                    tuple(at_s + t for (_, at_s), t in zip(M, self.projection.t)))

        return n, part, basis, write

    @property
    def ledger(self) -> SizeLedger:
        Q = self.Q
        return SizeLedger(Q.dim, len(Q.A), len(Q.C), self.reduced_variable_bound)

    def var_names(self):
        if self.block_dims is None:
            return [f"x{j + 1}" for j in range(self.Q.dim)]
        names = []
        for i, k in enumerate(self.block_dims):
            names.extend(f"z{i}_{j + 1}" for j in range(k))
        return names


def _substituted(pairs, s, T, zero):
    """<row, x> for x = s + T u, from the row's ``(index, coefficient)``
    pairs in order: ``({column: coefficient}, <row, s>)``."""
    lhs, at_s = {}, zero
    for j, c in pairs:
        if c:
            at_s += c * s[j]
            for col, v in T[j].items():
                lhs[col] = lhs.get(col, zero) + c * v
    return lhs, at_s


def _int_system(base, steps, part, basis):
    """The exact reduced system on integers, ``(rows, by_last, M, F)``.
    The current block is carried as x = (s + T u)/L, integers over one
    L > 0, from x = part + N w.  A reflection (a, beta) adds one column
    lambda, with y = x + lambda*a and the rows -<a,a>lambda <= 0 and
    2<a,x> + <a,a>lambda <= 2*beta; a map f gives y = f(x) and no column; a
    box lift of width k adds k columns with their rows u <= 1 and -u <= 0.
    So ``rows`` are Q's inequality rows with z = s + T u substituted, in Q's
    order, each as ``(pairs, rhs, f)``: pairs/f u <= rhs/f, with the
    ``(column, int)`` pairs and rhs over the least such f > 0.
    ``by_last[j]`` holds the rows whose last nonzero column is j, and one
    more group the all-zero rows.  ``M`` is M u + t, one ``(pairs, t)`` per
    output coordinate, over one common F, again the least.
    """
    # x = w over L = G, then part + N w.  G is the lcm of every g with (a, beta) =
    # (a', beta')/g for a reflection's int_form, so L stays a multiple of each g
    G = lcm(*(e.denominator for kind, d in steps if kind == "reflection" for e in (*d.a, d.beta)))
    n, rows = len(basis), []  # columns so far
    s, T, L = [0] * n, [{k: G} for k in range(n)], G

    def mapped(M, t):  # (s, T, L) of y = M x + t
        r, g = int_scale(e for row, c in zip(M, t) for e in (*row, c))
        w = len(r) // len(t) if t else 1
        ys = [(*_substituted(enumerate(r[i : i + w - 1]), s, T, 0), r[i + w - 1])
              for i in range(0, len(r), w)]
        return [at_s + c * L for _, at_s, c in ys], [lhs for lhs, _, _ in ys], g * L

    def write(lhs, rhs, f):  # the row lhs/f <= rhs/f, in lowest terms
        g = gcd(f, rhs, *lhs.values())
        rows.append(([(j, c // g) for j, c in sorted(lhs.items()) if c], rhs // g, f // g))

    s, T, L = mapped([[col[j] for col in basis] for j in range(len(part))], part)
    ys, lhss, f = mapped(base.A, [-v for v in base.b])  # y = A x - b <= 0
    for lhs, y in zip(lhss, ys):
        write(lhs, -y, f)
    for kind, data in steps:
        if kind == "reflection":
            (a, beta, aa), g = data.int_form(), lcm(*(e.denominator for e in (*data.a, data.beta)))
            lhs, at_s = _substituted(((j, 2 * g * c) for j, c in a), s, T, 0)
            lhs[n] = aa * L  # the column lambda
            write({n: -aa}, 0, g * g)
            write(lhs, 2 * g * beta * L - at_s, g * g * L)
            for j, c in a:
                T[j][n] = c * (L // g)
            n += 1
        elif kind == "map":
            s, T, L = mapped(data.M, data.t)
        else:  # a box lift of width data
            for col in range(n, n + data):
                write({col: 1}, 1, 1)
                write({col: -1}, 0, 1)
                s.append(0)
                T.append({col: L})
            n += data
    by_last = [[] for _ in range(n + 1)]
    for row in rows:
        by_last[row[0][-1][0] if row[0] else n].append(row)
    g = gcd(L, *s, *(v for t in T for v in t.values()))
    return rows, by_last, [([(j, c // g) for j, c in sorted(t.items()) if c], v // g)
                           for t, v in zip(T, s)], L // g


def compose_extension(
    P: HPolyhedron, rels: Sequence[PolyhedralRelation], label: str = ""
) -> ExtendedFormulation:
    """Compose a base polytope with a type-compatible relation chain.

    The result lives over R^{k0 + .. + kr}: P constrains block 0, relation i
    constrains blocks (i-1, i), and the projection selects block r.  With an
    empty chain the result is P itself under the identity projection.
    """
    rels = tuple(rels)
    backend = P.backend
    dims = [P.dim]
    for i, rel in enumerate(rels):
        backend = join_backends(backend, rel.backend)
        if rel.n != dims[-1]:
            raise DimensionError(
                f"relation {i} expects input dim {rel.n}, chain provides {dims[-1]}"
            )
        dims.append(rel.m)
    total = sum(dims)
    offsets = [0]
    for k in dims:
        offsets.append(offsets[-1] + k)

    zero = Fraction(0) if backend == EXACT else 0.0

    def placed(row, start):
        out = [zero] * total
        out[start : start + len(row)] = row
        return tuple(out)

    A_rows, b_rhs, C_rows, d_rhs = [], [], [], []
    for body, start in [(P, 0)] + [(rel.body, offsets[i]) for i, rel in enumerate(rels)]:
        A_rows += [placed(row, start) for row in body.A]
        b_rhs += body.b
        C_rows += [placed(row, start) for row in body.C]
        d_rhs += body.d
    Q = HPolyhedron(total, tuple(A_rows), tuple(b_rhs), tuple(C_rows), tuple(d_rhs), backend)
    sel = tuple(placed(row, offsets[-2]) for row in identity_matrix(dims[-1], backend))
    projection = AffineMap(sel, zero_vector(dims[-1], backend), backend)

    delta_pairs = [_step_deltas(r) for r in rels]
    bound = min(
        dims[0] + sum(d1 for d1, _ in delta_pairs),
        dims[-1] + sum(d2 for _, d2 in delta_pairs),
    )
    ef = ExtendedFormulation(
        Q, projection, bound, tuple(dims), base=P, relations=rels, label=label
    )
    if all(rel.step is not None for rel in rels):
        object.__setattr__(ef, "steps", tuple(rel.step for rel in rels))
    return ef


def eliminate_equations(ef: ExtendedFormulation) -> ExtendedFormulation:
    """Equivalent formulation over the free variables of Q's equation
    system: the one Fraction view of the reduced system of the cached
    :func:`projection_checker`, with ``Fraction(c, f)`` for each entry c of
    an exact integer row over its scale f, and the float rows as they are.
    Its ledger reads the free-variable count as ``raw_variables``, the same
    inequality count and ``equations`` 0, and keeps the reduced-variable
    bound.  Raises :class:`~reflekt.numeric.EmptyPolyhedronError` when the
    equations are inconsistent and ValueError when the free variables
    outnumber the bound.
    """
    checker = projection_checker(ef)
    if not checker.consistent:
        raise checker.inconsistency
    n_free, bound = checker.n_free, ef.reduced_variable_bound
    if n_free > bound:
        raise ValueError(f"{n_free} free variables exceed the fiber-dimension bound {bound}")
    backend = ef.Q.backend
    if backend == EXACT:
        rows, _, proj, F = checker.int_rows()
        A = tuple(sparse_row(n_free, [(j, Fraction(c, f)) for j, c in p]) for p, _, f in rows)
        b = tuple(Fraction(r, f) for _, r, f in rows)
        M = tuple(sparse_row(n_free, [(j, Fraction(c, F)) for j, c in p]) for p, _ in proj)
        t = tuple(Fraction(v, F) for _, v in proj)
    else:
        A, b, M, t = checker.A_red, checker.b_red, checker.M_red, checker.t_red
    return ExtendedFormulation(
        HPolyhedron(n_free, A, b, (), (), backend),
        AffineMap(M, t, backend),
        bound,
        block_dims=None,
        label=ef.label,
    )


def _witness_blocks(ef: ExtendedFormulation, y, tol: float, memo=None):
    """A certificate that y lies in the projection, read off canonical
    preimages walked from y back to the base block, or None (also for any
    None preimage).  A formulation without
    :attr:`~ExtendedFormulation.steps` takes no witness, on either backend.
    An exact one is walked on integers from y, a :class:`ScaledPoint` or a
    tuple of rationals, and gives its reduced point u as a ScaledPoint over
    the base block's denominator, read during the walk: the base block's
    free coordinates, then one lambda = (y_j - x_j)/a_j per reflection (a_j
    the first nonzero of a; an integer over x's denominator when x is
    canonical) and the k output coordinates per box lift.  u is returned
    only when :meth:`~reflekt.lp.ProjectionChecker.certifies` accepts it on
    the checker's integer rows, so it stands for a point of Q projecting to
    y however it was read.

    The walk below a point is fixed by the point, and so are the columns it
    reads, a prefix of u, and the integer rows whose last nonzero column
    lies in that prefix.  ``memo`` maps (level, point), level the number of
    steps walked, to that tail: the prefix as ``(nums, den)`` over the base
    block's denominator once those rows hold
    (:meth:`~reflekt.lp.ProjectionChecker.rows_hold`), else None.  Calls
    that share a memo (the vertices of one certification) run each preimage
    and check each such row once per distinct point; a lone call walks with
    a memo of its own.  Level 0, y itself, is never stored: the rows of the
    last step's columns, the all-zero rows and the projection
    (:meth:`~reflekt.lp.ProjectionChecker.projects_to`) are checked for
    every y.  A float chain gives the raw point z, walked per call with no
    memo and returned only when Q contains it within ``tol``
    (DimensionError for a z whose length is not Q's dimension)."""
    steps = ef.steps
    if steps is None:
        return None
    if ef.backend != EXACT:
        blocks = [tuple(y)]
        for rel in reversed(ef.relations):
            blocks.append(rel.preimage(blocks[-1], tol) if rel.preimage else None)
            if blocks[-1] is None:
                return None
        z = tuple(e for blk in reversed(blocks) for e in blk)
        return z if ef.Q.contains(z, tol) else None
    checker = projection_checker(ef)
    if not checker.consistent:
        return None
    target = checker.scaled(y, checker.out_dim)
    memo = {} if memo is None else memo
    rels = ef.relations
    level, point, walked = 0, target, []  # walked: (level, point, columns, their denominator)
    while not level or (level, point) not in memo:
        if level == len(rels):  # the base block's free coordinates
            X, D = point
            cols = [X[max(j for j, v in enumerate(col) if v)] for col in checker.N_cols]
            walked.append((level, point, cols, D))
            tail = (), D
            break
        kind, data = steps[-1 - level]
        rel = rels[-1 - level]
        x = rel.preimage(point, tol) if rel.preimage else None
        if x is None:
            tail = None
            break
        Y, g = point.nums, x.den // point.den
        if kind == "reflection" and x is not point:  # lambda * x.den, integral when canonical
            j = data.int_form()[0][0][0]
            a = data.a[j]
            cols = [(Y[j] * g - x.nums[j]) * a.denominator // a.numerator]
        elif kind == "reflection":  # the point was kept
            cols = [0]
        elif kind == "box":
            cols = [Y[j] * g for j in range(len(Y) - data, len(Y))]
        else:
            cols = []
        walked.append((level, point, cols, x.den))
        level, point = level + 1, x
    else:
        tail = memo[level, point]
    for level, point, cols, den in reversed(walked):
        if tail is not None:
            nums, D = tail
            scale = D // den
            U = nums + tuple(c * scale for c in cols)
            tail = (U, D) if checker.rows_hold(U, D, len(nums), len(U)) else None
        if level:
            memo[level, point] = tail
    if tail is None or not checker.projects_to(*tail, target):
        return None
    return ScaledPoint(*tail)


def point_in_projection(ef: ExtendedFormulation, y, tol: float = DEFAULT_TOL) -> bool:
    """Membership of y in the projection of Q, i.e. LP feasibility of
    Q together with projection(z) = y.

    :func:`_witness_blocks` tries a canonical-preimage witness first, on a
    formulation with :attr:`~ExtendedFormulation.steps` of either backend;
    it returns only a certificate (an exact reduced point tested on the
    checker's reduced system, a float raw point on Q), so a witness skips
    the LP.  ``tol`` is the witness step's comparison tolerance only.
    Without a witness the cached checker runs an exact phase 1, or a float
    one at the package's pivot tolerance ``DEFAULT_TOL``, whatever ``tol``
    is.
    """
    if len(y) != ef.projection.out_dim:
        raise DimensionError("point dimension != projection output dimension")
    if _witness_blocks(ef, y, tol) is not None:
        return True
    return projection_checker(ef).feasible(y)


def projection_checker(ef: ExtendedFormulation):
    """Cached LP-based membership/optimization helper for one formulation."""
    if ef._checker is None:
        object.__setattr__(ef, "_checker", ProjectionChecker(ef))
    return ef._checker
