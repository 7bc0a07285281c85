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
from typing import Callable, Optional, Sequence

from . import numeric
from .lp import ProjectionChecker
from .numeric import (
    DEFAULT_TOL,
    EXACT,
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
    Graph relations are exact; a float map raises BackendError."""
    if f.backend != EXACT:
        raise BackendError("graph relations are exact; got a float map")
    n, m = f.in_dim, f.out_dim
    eqs = [(tuple(-e for e in f.M[i]) + unit_vector(i, m, EXACT), f.t[i]) for i in range(m)]
    body = HPolyhedron.from_rows(n + m, (), eqs)
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
    """:func:`deltas` as the relation's step fixes them, with no rank
    computed: (1, 1) for a reflection, (k, 0) for a box lift of width k;
    other relations are read off the body."""
    kind, data = rel.step or (None, None)
    if kind == "reflection":
        return 1, 1
    if kind == "box":
        return data, 0
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


@dataclass(eq=False)
class ExtendedFormulation:
    """A block-structured polyhedron Q plus the projection onto its last
    block and the fiber-dimension bound on its free variables; the size
    :attr:`ledger` reads every other count off Q.

    ``base`` and ``relations`` retain the construction provenance when
    available; they let membership queries read a witness off canonical
    preimages before falling back to the LP, and with :attr:`steps` they give
    :meth:`parametrised` one column per reflection.
    The cached checker is not an init field, so :func:`dataclasses.replace`
    gives a copy without it.  ``block_dims`` is None once the
    block structure has been destroyed (after equation elimination), else
    nonnegative ``int``s summing to Q.dim; every projection row has Q.dim
    entries, and ``reduced_variable_bound`` is a nonnegative ``int``
    (:class:`~reflekt.numeric.DimensionError` otherwise).
    """

    Q: HPolyhedron
    projection: AffineMap
    reduced_variable_bound: int
    block_dims: Optional[tuple] = None
    base: Optional[HPolyhedron] = None
    relations: Optional[tuple] = None
    label: str = ""
    _checker: object = field(default=None, init=False, repr=False, compare=False)
    _chain: object = field(default=None, init=False, repr=False, compare=False)

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

    @property
    def steps(self) -> Optional[tuple]:
        """The relations' steps in chain order when :func:`compose_extension`
        composed Q, its projection, base and relations (still these very
        objects) from an exact chain whose every relation keeps a step, else
        None.  They pick the input of :meth:`parametrised`: the base and
        these steps, or else Q itself under its projection.  A formulation
        whose Q was replaced keeps its relations but not its steps."""
        chain = self._chain
        current = (self.Q, self.projection, self.base, self.relations)
        if chain is None or any(a is not b for a, b in zip(chain, current)):
            return None
        return chain[-1]

    def parametrised(self):
        """The reduced system, written here only, or None when the base's
        equations are inconsistent.  With :attr:`steps` the input is the
        chain's base and steps; without, Q itself is the base and its
        projection one graph step.

        The current block is carried as x = s + T u over the columns u so
        far, starting from the base's own solution space (no column for a
        one-point base).  A reflection (a, beta) adds one column lambda, with
        y = x + lambda*a and the rows -<a,a>lambda <= 0 and
        2<a,Tu> + <a,a>lambda <= 2*beta - 2<a,s>; a map f gives y = f(x) and
        no column; a box lift of width k adds k columns with their rows
        u <= 1 and -u <= 0.  These are Q's inequality rows with z = s + T u
        substituted, in Q's order and over each row's nonzeros in coordinate
        order, so float results are the bits of dense dot products.  Returns
        ``(n, A, b, M, t, part, basis)``: n columns, A u <= b the rows,
        M u + t the last block and part + N w (N's columns in ``basis``) the
        points of the base's equations.  The base's columns come first, in
        basis order, then each step's in chain order; :func:`_witness_blocks`
        reads u in this order.
        """
        steps = self.steps
        base, steps = (self.Q, (("map", self.projection),)) if steps is None else (self.base, steps)
        backend = base.backend
        part, basis = affine_solution_space(base.C, base.d, dim=base.dim, backend=backend)
        if part is None:
            return None
        one, zero = to_scalar(1, backend), to_scalar(0, backend)
        s, T, lhss, rhss = list(part), [{} for _ in part], [], []
        for k, col in enumerate(basis):
            for j, v in enumerate(col):
                if v:
                    T[j][k] = v
        n = len(basis)  # columns so far

        def substituted(pairs):  # <row, x> as ({column: coefficient}, <row, s>)
            lhs, at_s = {}, zero
            for j, c in pairs:
                if c:
                    at_s += c * s[j]
                    for col, v in T[j].items():
                        lhs[col] = lhs.get(col, zero) + c * v
            return lhs, at_s

        for row, rhs in zip(base.A, base.b):
            lhs, at_s = substituted(enumerate(row))
            lhss.append(lhs)
            rhss.append(rhs - at_s)
        for kind, data in steps:
            if kind == "reflection":
                a = [(j, c) for j, c in enumerate(data.a) if c]
                aa = sum(c * c for _, c in a)
                lhs, at_s = substituted((j, 2 * c) for j, c in a)
                lhs[n] = aa  # the column lambda
                lhss += [{n: -aa}, lhs]
                rhss += [zero, 2 * data.beta - at_s]
                for j, c in a:
                    T[j][n] = c
                n += 1
            elif kind == "map":
                new_s, new_T = [], []
                for row, t in zip(data.M, data.t):
                    lhs, at_s = substituted(enumerate(row))
                    new_s.append(at_s + t)
                    new_T.append(lhs)
                s, T = new_s, new_T
            else:  # a box lift of width data
                for col in range(n, n + data):
                    lhss += [{col: one}, {col: -one}]
                    rhss += [one, zero]
                    s.append(zero)
                    T.append({col: one})
                n += data
        zeros = [zero] * n

        def dense(lhs):
            row = zeros[:]
            for j, v in lhs.items():
                row[j] = v
            return tuple(row)

        return n, tuple(map(dense, lhss)), tuple(rhss), tuple(map(dense, T)), tuple(s), part, basis

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

    def placed(row, start, width):
        out = [zero] * total
        out[start : start + width] = list(row)
        return tuple(out)

    A_rows, b_rhs, C_rows, d_rhs = [], [], [], []
    for row, rhs in zip(P.A, P.b):
        A_rows.append(placed(row, 0, P.dim))
        b_rhs.append(rhs)
    for row, rhs in zip(P.C, P.d):
        C_rows.append(placed(row, 0, P.dim))
        d_rhs.append(rhs)
    for i, rel in enumerate(rels):
        start, width = offsets[i], rel.n + rel.m
        for row, rhs in zip(rel.body.A, rel.body.b):
            A_rows.append(placed(row, start, width))
            b_rhs.append(rhs)
        for row, rhs in zip(rel.body.C, rel.body.d):
            C_rows.append(placed(row, start, width))
            d_rhs.append(rhs)

    Q = HPolyhedron(total, tuple(A_rows), tuple(b_rhs), tuple(C_rows), tuple(d_rhs), backend)

    k_last = dims[-1]
    one = Fraction(1) if backend == EXACT else 1.0
    sel = []
    for j in range(k_last):
        row = [zero] * total
        row[offsets[-2] + j] = one
        sel.append(tuple(row))
    projection = AffineMap(tuple(sel), zero_vector(k_last, backend), backend)

    delta_pairs = [_step_deltas(r) for r in rels]
    bound = min(
        dims[0] + sum(d1 for d1, _ in delta_pairs),
        dims[-1] + sum(d2 for _, d2 in delta_pairs),
    )
    ef = ExtendedFormulation(
        Q, projection, bound, tuple(dims), base=P, relations=rels, label=label
    )
    if backend == EXACT and all(rel.step is not None for rel in rels):
        ef._chain = (Q, projection, P, rels, tuple(rel.step for rel in rels))
    return ef


def eliminate_equations(ef: ExtendedFormulation) -> ExtendedFormulation:
    """Equivalent formulation over the free variables of Q's equation system.

    Reads the reduced system of the formulation's cached
    :func:`projection_checker`, which takes it from
    :meth:`ExtendedFormulation.parametrised`: one column per reflection of a
    chain with steps, or else one per free coordinate of Cz = d.  The result's
    ledger reads the free-variable count as ``raw_variables``, the same
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
    return ExtendedFormulation(
        HPolyhedron(n_free, checker.A_red, checker.b_red, (), (), backend),
        AffineMap(checker.M_red, checker.t_red, backend),
        bound,
        block_dims=None,
        label=ef.label,
    )


def _witness_blocks(ef: ExtendedFormulation, y, tol: float, memo=None):
    """A certificate that y lies in the projection, read off canonical
    preimages walked from y back to the base block, or None (also for any
    None preimage).  An exact formulation with
    :attr:`~ExtendedFormulation.steps` is walked on integers from y, a
    :class:`ScaledPoint` or a tuple of rationals, and gives its reduced point
    u as a ScaledPoint over the base block's denominator, read during the
    walk: the base block's free coordinates, then one lambda = (y_j - x_j)/a_j
    per reflection (a_j the first nonzero of a; an integer over x's
    denominator when x is canonical) and the k output coordinates per box
    lift.  u is returned only when
    :meth:`~reflekt.lp.ProjectionChecker.certifies` would accept it, so it
    stands for a point of Q projecting to y however it was read.

    The walk below a point is fixed by the point, and so are the columns it
    reads, a prefix of u, and the rows of A_red whose last nonzero column
    lies in that prefix.  ``memo`` maps (level, point), level the number of
    steps walked, to that tail: the prefix as ``(nums, den)`` over the base
    block's denominator once those rows hold
    (:meth:`~reflekt.lp.ProjectionChecker.rows_hold`), else None.  Calls
    that share a memo (the vertices of one certification) run each preimage
    and check each such row once per distinct point; a lone call walks with
    a memo of its own.  Level 0, y itself, is never stored: the rows of the
    last step's columns, A_red's all-zero rows and the projection
    (:meth:`~reflekt.lp.ProjectionChecker.projects_to`) are checked for
    every y.  An exact formulation without steps takes no witness.  A float chain gives the raw point z, walked per call with no
    memo and returned only when Q contains it within ``tol``
    (DimensionError for a z whose length is not Q's dimension)."""
    if ef.relations is None or ef.base is None or ef.block_dims is None:
        return None
    if ef.backend != EXACT:
        blocks = [tuple(y)]
        for rel in reversed(ef.relations):
            blocks.append(rel.preimage(blocks[-1], tol) if rel.preimage else None)
            if blocks[-1] is None:
                return None
        z = tuple(e for blk in reversed(blocks) for e in blk)
        return z if ef.Q.contains(z, tol) else None
    steps, checker = ef.steps, projection_checker(ef)
    if steps is None or not checker.consistent:
        return None
    target = y if isinstance(y, ScaledPoint) else ScaledPoint.of(vector(y, EXACT))
    if len(target.nums) != len(checker.t_red):
        raise DimensionError(f"{len(target.nums)} coordinates for a projection "
                             f"to R^{len(checker.t_red)}")
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

    :func:`_witness_blocks` tries a canonical-preimage witness first, on an
    exact formulation with :attr:`~ExtendedFormulation.steps` or a float
    one that keeps its base and relations; it returns only a certificate (an
    exact reduced point tested on the checker's reduced system, a float raw
    point on Q), so a witness skips the LP.  ``tol`` is the witness step's comparison
    tolerance only.  Without a witness the cached checker runs an exact
    phase 1, or a float one at the package's pivot tolerance
    ``DEFAULT_TOL``, whatever ``tol`` is.
    """
    if len(y) != ef.projection.out_dim:
        raise DimensionError("point dimension != projection output dimension")
    if _witness_blocks(ef, y, tol) is not None:
        return True
    return projection_checker(ef).feasible(y)


def projection_checker(ef: ExtendedFormulation):
    """Cached LP-based membership/optimization helper for one formulation."""
    if ef._checker is None:
        ef._checker = ProjectionChecker(ef)
    return ef._checker
