"""Self-contained two-phase simplex over both numeric backends, behind one
entry point on raw rows, :func:`solve_system`.  Every solve maximises; a
minimum is minus the maximum of the negated objective.

Both paths pivot on a condensed dictionary, as in Avis's lrs: rows hold
only the nonbasic columns and the rhs.  Exact rows are scaled to integers up
front and each pivot uses the previous-pivot division rule, so entries stay
integers (subdeterminants of the input) with no gcd normalization; Bland's
rule, by variable label, terminates without perturbation.  Float pivots
price by largest coefficient at the symmetric tolerance ``DEFAULT_TOL`` (no
solver takes a tolerance), with the bits of a dense tableau; a batch of
objectives is staged as cost rows and carried through one phase 1.

Variables are free by default (internally split into positive and negative
parts); ``nonneg=True`` skips the split, which the convex-hull membership
oracle uses for its multipliers.  Equations are handled natively in phase 1
rather than split into inequality pairs.  Both backends stage the
condensed dictionary directly, in one function, and read the point back in
another; no dense tableau is built.

:class:`ProjectionChecker` does each query's objective-independent work
once per formulation, and caches nothing else.  Its reduced system comes
from one writer, :meth:`~reflekt.polyhedra.ExtendedFormulation.parametrised`,
as integer rows on exact data: one column per reflection of a chain with
steps, or one per free coordinate of Q's equations for any other
formulation, which is parametrised as its own base.  Exact queries use a
vertex-start dictionary: from a feasible point (a registered seed, else
one exact solve) every free variable is pivoted into the basis and only the
slack rows are kept, with one integer projection row per output coordinate
priced into that basis.  An objective is an integer combination of the
projection rows, solved by Bland's rule with no phase 1; a membership query
adds the projection rows as artificial equations and runs phase 1 alone.
Before any of that, an exact objective can be proved at a certified witness,
the reduced point that the canonical-preimage walk reads
(:meth:`ProjectionChecker.proves_max`): a dual y >= 0 on the rows tight
there, found by back substitution over the chain's triangular rows, closes
the maximum with no pivot, so the dictionary is factored only when some
objective or membership query falls back to it.
The float objectives of one call share one phase 1 and are solved as one
pivot tree: objectives share each phase-2 pivot until their paths split,
and each keeps the bits of its own solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, inf
from operator import add
from typing import Optional, Sequence

from .numeric import DEFAULT_TOL, EXACT, FLOAT, DimensionError, EmptyPolyhedronError, ScaledPoint
from .numeric import affine_solution_space, dot, int_scale, to_scalar, vec_sub, vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 1_000_000
_MAX_PIVOTS_FLOAT = 20_000


class LPNumericError(RuntimeError):
    """Float-mode numeric failure, distinct from a clean infeasibility."""


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[object] = None
    point: Optional[tuple] = None


class _ExactCore:
    """Simplex phases on a condensed fraction-free integer dictionary, as in
    Avis's lrs: rows hold the nonbasic columns and the rhs only, ``cols``
    labels each column slot and ``basis`` the basic variable of each
    constraint row, whose own column is implicitly q times a unit vector."""

    def __init__(self, rows, basis, cols, q=1):
        self.rows = rows      # constraint rows, then objective rows; rhs last
        self.basis = basis    # label of the basic variable of each constraint row
        self.cols = cols      # label of the nonbasic variable in each slot
        self.q = q            # previous pivot; true dictionary = rows / q
        self.pivots = 0

    def pivot(self, r, c):
        """Exchange row r's basic variable with slot c's.  The leaving
        variable takes slot c: its column is q in row r and -T[i][c] in every
        other row i.  A pivot replaces rows and never edits one."""
        rows, q = self.rows, self.q
        lead = rows[r]
        piv = lead[c]
        assert piv > 0
        for i, cur in enumerate(rows):
            if i == r:
                continue
            f = cur[c]
            if f:
                cur = [(piv * a - f * b) // q for a, b in zip(cur, lead)]
                cur[c] = -f
                rows[i] = cur
            elif piv != q:
                rows[i] = [(piv * a) // q for a in cur]
        rows[r] = lead = lead[:]
        lead[c] = q
        self.q = piv
        self.basis[r], self.cols[c] = self.cols[c], self.basis[r]
        self.pivots += 1

    def _ratio_row(self, col, m):
        """Bland leaving row for entering slot ``col`` among the first m rows."""
        best = -1
        rows = self.rows
        for i in range(m):
            a = rows[i][col]
            if a <= 0:
                continue
            if best < 0:
                best = i
                continue
            lhs = rows[i][-1] * rows[best][col]
            rhs = rows[best][-1] * a
            if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                best = i
        return best

    def run_phase(self, obj_idx, m, limit):
        """Pivot until the objective row ``obj_idx`` has no positive reduced
        cost on a label below ``limit``, entering the smallest such label;
        returns False on unboundedness."""
        rows, cols = self.rows, self.cols
        for _ in range(_MAX_PIVOTS):
            enter = [lab for lab, e in zip(cols, rows[obj_idx]) if e > 0 and lab < limit]
            if not enter:
                return True
            c = cols.index(min(enter))
            r = self._ratio_row(c, m)
            if r < 0:
                return False
            self.pivot(r, c)
        raise AssertionError("pivot limit hit in exact mode")


def _phase1_row(rows, width, zero):
    """The phase-1 row: the sum, in order, of the rows (``width`` entries
    each) whose artificials are basic."""
    total = [zero] * width
    for row in rows:
        total = [a + e for a, e in zip(total, row)]
    return total


def _stage(n_vars, ineqs, eqs, objectives, nonneg, exact):
    """The condensed starting dictionary of a two-phase solve, for either core.

    Rows are split over x and -x (x alone with ``nonneg``: nv split
    variables), scaled to integers on the exact backend and flipped to a
    nonnegative rhs.  Slack i, label nv + i, stays basic in an unflipped
    inequality; an equation or a flipped inequality gets the next artificial
    label, and a flipped slack is a slot, -1 in its own row.  Returns
    ``(rows, basis, cols, scales, n_struct)``: the constraint rows, the
    phase-1 row and one cost row per objective (split, and integer-scaled on
    the exact backend by ``scales``) over the slots and the rhs; the labels
    of the basic variables and of the slots; and nv + len(ineqs), the count
    of labels below the artificials.
    """
    backend = EXACT if exact else FLOAT
    zero = 0 if exact else 0.0

    def split(coeffs):
        out = [to_scalar(c, backend) for c in coeffs]
        return out if nonneg else out + [-c for c in out]

    nv = n_vars if nonneg else 2 * n_vars
    n_struct = nv + len(ineqs)
    staged, basis, n_art = [], [], 0
    for i, (coeffs, rhs) in enumerate((*ineqs, *eqs)):
        row = split(coeffs) + [to_scalar(rhs, backend)]
        if exact:
            row = int_scale(row)[0]
        if i < len(ineqs) and row[-1] >= 0:
            basis.append(nv + i)
        else:  # an equation or a flipped inequality needs an artificial
            basis.append(n_struct + n_art)
            n_art += 1
        staged.append(row if row[-1] >= 0 else [-e for e in row])
    flipped = [i for i in range(len(ineqs)) if basis[i] >= n_struct]
    cols = list(range(nv)) + [nv + i for i in flipped]
    rows = [row[:-1] + [zero - 1 if k == i else zero for k in flipped] + row[-1:]
            for i, row in enumerate(staged)]
    width = len(cols) + 1
    rows.append(_phase1_row([row for row, lab in zip(rows, basis) if lab >= n_struct],
                            width, zero))
    scales = []
    for c in objectives:
        row, scale = int_scale(split(c)) if exact else (split(c), 1)
        rows.append(row + [zero] * (width - nv))
        scales.append(scale)
    return rows, basis, cols, scales, n_struct


def _point(basis, values, n_vars, nonneg, zero):
    """x from the basic labels ``basis`` and their values: x_j is the value
    of label j less that of its negative part n_vars + j (none with
    ``nonneg``), a nonbasic label counting ``zero``."""
    vals = dict(zip(basis, values))
    x = tuple(vals.get(j, zero) for j in range(n_vars))
    return x if nonneg else tuple(a - vals.get(n_vars + j, zero) for j, a in enumerate(x))


def _solve_exact(n_vars, ineqs, eqs, objective, nonneg):
    """:func:`solve_system` on the exact backend: phase 1, leftover
    artificials driven out, then phase 2, which a zero objective never pivots."""
    rows, basis, cols, (scale,), n_struct = _stage(n_vars, ineqs, eqs, [objective], nonneg, True)
    core = _ExactCore(rows, basis, cols)
    m = len(basis)  # the phase-1 row is row m, the cost row m + 1

    # phase 1 may enter any label, artificials too; with no artificial its
    # row is zero and it stops at once
    core.run_phase(m, m, inf)
    if core.rows[m][-1] != 0:
        return LPResult(INFEASIBLE)
    # drive leftover artificials out of the basis or drop their rows
    for i in range(m - 1, -1, -1):
        if core.basis[i] < n_struct:
            continue
        row = core.rows[i]
        assert row[-1] == 0  # basic artificials sit at value zero here
        enter = [lab for lab, e in zip(core.cols, row) if e and lab < n_struct]
        if not enter:
            del core.rows[i], core.basis[i]
            m -= 1
            continue
        col = core.cols.index(min(enter))
        if row[col] < 0:  # negates the artificial, which never re-enters
            core.rows[i] = [-e for e in row]
        core.pivot(i, col)

    if not core.run_phase(m + 1, m, n_struct):
        return LPResult(UNBOUNDED)

    q = core.q
    x = _point(core.basis, (Fraction(row[-1], q) for row in core.rows[:m]),
               n_vars, nonneg, Fraction(0))
    return LPResult(OPTIMAL, Fraction(-core.rows[m + 1][-1], q) / scale, x)


class _FloatCore:
    """Float simplex phases on :class:`_ExactCore`'s condensed dictionary with
    q = 1, and the bits of a dense tableau, whose basic columns are exact unit
    vectors.  A pivot replaces rows and never edits one, so shallow copies of
    the three lists are an independent dictionary."""

    def __init__(self, rows, basis, cols):
        self.rows, self.basis, self.cols = rows, basis, cols  # as in _ExactCore

    def pivot(self, r, c, riders=()):
        """Swap row r's basic variable and slot c's: row r becomes e / p, any
        other row or row of the list ``riders`` with f = row[c] nonzero a - f * b,
        and slot c, the leaving unit column, 1.0 / p and -(f * (1.0 / p))."""
        rows = self.rows
        piv = rows[r][c]
        rows[r] = lead = [e / piv for e in rows[r]]
        lead[c] = inv = 1.0 / piv
        for part in (rows, riders):
            for i, row in enumerate(part):
                f = row[c]
                if f and row is not lead:
                    part[i] = row = [a - f * b for a, b in zip(row, lead)]
                    row[c] = -f * inv
        self.basis[r], self.cols[c] = self.cols[c], self.basis[r]

    def priced(self, limit):
        """The slots with labels below ``limit`` in label order, so the first
        with the largest reduced cost, the one that enters, has the least label."""
        cols = self.cols
        return sorted((s for s, lab in enumerate(cols) if lab < limit), key=cols.__getitem__)

    def leaving(self, c):
        """The first row of least ratio within ``DEFAULT_TOL`` for slot c, -1 if none."""
        rows, r, best_ratio, tol = self.rows, -1, None, DEFAULT_TOL
        for i in range(len(self.basis)):
            a = rows[i][c]
            if a > tol:
                ratio = rows[i][-1] / a
                if best_ratio is None or ratio < best_ratio - tol:
                    r, best_ratio = i, ratio
        return r

    def run_phase(self, obj_idx):
        """Phase 1: pivot until row ``obj_idx`` prices no slot, or the slot
        it prices is unblocked."""
        for _ in range(_MAX_PIVOTS_FLOAT):
            objrow = self.rows[obj_idx]
            c = max(self.priced(inf), key=objrow.__getitem__, default=-1)
            r = self.leaving(c) if c >= 0 and objrow[c] > DEFAULT_TOL else -1
            if r < 0:
                return
            self.pivot(r, c)
        raise LPNumericError("float simplex failed to converge")


def _float_optima(n_vars, ineqs, eqs, objectives, nonneg):
    """Two-phase float solves of each objective over one system; returns one
    :class:`LPResult` per objective, or None when phase 1 finds the system
    infeasible.

    The cost rows are staged below the phase-1 row and carried through
    phase 1, whose decisions read only the constraint rows
    and the phase-1 row.  Phase 2 is one pivot tree walked depth first.  A
    node is a :class:`_FloatCore` of constraint rows with the rows of the
    objectives that reached it.  Those that enter the same slot share a
    child: one ratio test, then one pivot on shallow copies with their rows
    as riders, so every objective keeps the bits of its own solve."""
    rows, basis, cols, _, limit = _stage(n_vars, ineqs, eqs, objectives, nonneg, False)
    m = len(basis)
    feas_eps = DEFAULT_TOL * (10.0 + reduce(add, (row[-1] for row in rows[:m]), 0))
    _FloatCore(rows, basis, cols).run_phase(m)  # at once when no artificial is basic
    if rows[m][-1] > feas_eps:
        return None
    results = [None] * len(objectives)
    stack = [(_FloatCore(rows[:m], basis, cols), list(range(len(objectives))), rows[m + 1:], 0)]
    while stack:
        node, ks, objrows, depth = stack.pop()
        priced, children = node.priced(limit), {}
        for k, row in zip(ks, objrows):
            c = max(priced, key=row.__getitem__, default=-1)
            if c >= 0 and row[c] > DEFAULT_TOL:
                children.setdefault(c, []).append((k, row))
                continue
            x = _point(node.basis, (t[-1] for t in node.rows), n_vars, nonneg, 0.0)
            results[k] = LPResult(OPTIMAL, -row[-1], x)
        for c, members in children.items():
            ks, riders = map(list, zip(*members))
            r = node.leaving(c)
            if r < 0:
                for k in ks:
                    results[k] = LPResult(UNBOUNDED)
            elif depth == _MAX_PIVOTS_FLOAT:
                raise LPNumericError("float simplex failed to converge")
            else:
                child = _FloatCore(node.rows[:], node.basis[:], node.cols[:])
                child.pivot(r, c, riders)
                stack.append((child, ks, riders, depth + 1))
    return results


def solve_system(
    n_vars: int,
    ineqs: Sequence,
    eqs: Sequence,
    objective: Sequence,
    backend: str = EXACT,
    nonneg: bool = False,
) -> LPResult:
    """Maximise <objective, x> over ``(coeffs, rhs)`` rows: ``ineqs`` as
    coeffs x <= rhs and ``eqs`` as coeffs x = rhs, over ``n_vars`` free
    variables (nonnegative ones with ``nonneg``).  The exact backend pivots
    by Bland's rule and returns exact optima; the float one prices by
    largest coefficient at ``DEFAULT_TOL`` and raises :class:`LPNumericError`
    (never a silent wrong status) when it cannot converge.  A zero objective
    asks whether the rows are feasible: phase 1 decides it, and phase 2
    stops at once, with status OPTIMAL and value 0 when they are."""
    if backend == EXACT:
        return _solve_exact(n_vars, ineqs, eqs, objective, nonneg)
    if backend == FLOAT:
        results = _float_optima(n_vars, ineqs, eqs, [objective], nonneg)
        return LPResult(INFEASIBLE) if results is None else results[0]
    raise ValueError(f"unknown backend {backend!r}")


def in_hull(y, V) -> bool:
    """Membership of y in conv(V) for a :class:`~reflekt.oracles.VertexSet`
    V, whose points need not be extreme, via the multiplier LP
    {lambda >= 0, sum lambda = 1, sum lambda_i v_i = y} with a zero
    objective, decided by phase 1, whose float pivots run at ``DEFAULT_TOL``.
    Raises ValueError when V is empty or when y or a point of V has the
    wrong length."""
    if not V.points:
        raise ValueError("conv of an empty point set")
    if any(len(p) != V.dim for p in (y, *V.points)):
        raise DimensionError("point dimension != point set dimension")
    k = len(V.points)
    zero, one = (Fraction(0), Fraction(1)) if V.backend == EXACT else (0.0, 1.0)
    eqs = []
    for dcoord in range(V.dim):
        eqs.append((tuple(v[dcoord] for v in V.points), y[dcoord]))
    eqs.append(((one,) * k, one))
    res = solve_system(k, (), eqs, (zero,) * k, backend=V.backend, nonneg=True)
    return res.status == OPTIMAL


class ProjectionChecker:
    """Per-formulation LP helper over the reduced system A_red w <= b_red.

    The constructor calls the one writer,
    :meth:`~reflekt.polyhedra.ExtendedFormulation.parametrised`, which solves
    only the base's equations and counts ``n_free`` columns, all that the
    size checks read.  A_red w <= b_red are Q's inequality rows and M_red w
    + t_red its projection: on exact data only as the integer rows of
    :meth:`int_rows`, written on first use; on float data as the tuples
    ``A_red``, ``b_red``, ``M_red`` and ``t_red``.  An exact witness is a
    reduced point already, read by the canonical-preimage walk
    (:func:`~reflekt.polyhedra._witness_blocks`); a float seed, a raw point
    z of Q, solves N w = z - z_part, with z_part + N w (N's columns in
    ``N_cols``) the points of Q's equations.  An inconsistent system leaves
    ``consistent`` False and its error in ``inconsistency``.

    Besides the integer rows, which :meth:`certifies` and :meth:`proves_max`
    read, a checker caches one condensed integer dictionary, factored from
    them on first use with one integer row per output coordinate priced
    into it (:meth:`_factor`), only when an objective gets no certificate or
    a membership query runs.  An objective is an integer combination of the
    projection rows and pivots only among slack columns; a membership query
    adds them as artificial equations and runs one phase 1.  Float queries
    pivot on the same condensed layout: the objectives of one
    :meth:`maximize_projected_all` call as one pivot tree
    (:func:`_float_optima`), a membership query as one two-phase solve, at
    ``DEFAULT_TOL``; a checker takes no tolerance.
    """

    def __init__(self, ef):
        self.backend = ef.backend
        self.out_dim = ef.projection.out_dim
        self.w_feas = self.b_shift = None
        self.pivots = 0  # exact objective-path pivots, factoring included
        self._factored = self._ints = None  # caches
        self.z_part = self.N_cols = None
        system = ef.parametrised()
        self.consistent = system is not None
        self.inconsistency = None if system else EmptyPolyhedronError(
            "equation system is inconsistent")
        if system is None:
            return
        self.n_free, self.z_part, self.N_cols, self._write = system
        if self.backend == FLOAT:
            self.A_red, self.b_red, self.M_red, self.t_red = self._write()

    def scaled(self, v, m) -> ScaledPoint:
        """v, a :class:`ScaledPoint` or a tuple of rationals, as a
        ScaledPoint of m coordinates (``n_free`` for a reduced point,
        ``out_dim`` for a projected one); DimensionError for another length."""
        if not isinstance(v, ScaledPoint):
            v = ScaledPoint.of(vector(v, EXACT))
        if len(v.nums) != m:
            raise DimensionError(f"{len(v.nums)} coordinates, not {m}")
        return v

    def int_rows(self):
        """The exact reduced system, written on first use as ``(rows,
        by_last, M, F)``: the rows of A_red w <= b_red as ``(pairs, rhs, f)``
        in Q's order, and grouped by last nonzero column with the all-zero
        rows last; and M_red w + t_red as ``(pairs, t)`` rows over one F
        (:func:`~reflekt.polyhedra._int_system`)."""
        if self._ints is None:
            self._ints = self._write()
        return self._ints

    def rows_hold(self, U, den, lo, hi) -> bool:
        """Whether the rows of A_red whose last nonzero column is in
        ``range(lo, hi)`` hold at u = U/den, for integers U and den > 0.
        Such a row reads U[:hi] only, so a canonical-preimage walk checks
        it once per distinct tail below the level that reads column hi - 1
        (:func:`~reflekt.polyhedra._witness_blocks`).  The all-zero rows,
        the last group, are read by :meth:`projects_to`."""
        by_last = self.int_rows()[1]
        for k in range(lo, hi):
            for row, rhs, _ in by_last[k]:
                if sum(c * U[j] for j, c in row) > rhs * den:
                    return False
        return True

    def projects_to(self, U, den, y) -> bool:
        """Whether u = U/den meets the rows that read no column group: the
        all-zero rows of A_red (0 <= rhs) and M_red u + t_red = y, with y a
        :class:`ScaledPoint` of the output dimension."""
        _, by_last, M, F = self.int_rows()
        Y, D = y
        if any(rhs * den < 0 for _, rhs, _ in by_last[-1]):
            return False
        # F(M u + t) = F y times D * den, with u = U/den and y = Y/D
        return all((sum(c * U[j] for j, c in row) + t * den) * D == F * den * yi
                   for (row, t), yi in zip(M, Y))

    def certifies(self, u, y) -> bool:
        """Whether the exact reduced point u proves y feasible: A_red u <= b_red
        (:meth:`rows_hold` over every column) and :meth:`projects_to` y hold
        on integers, so the point of Q's equations that u stands for lies in
        Q and projects to y.  u and y are :class:`ScaledPoint` s or tuples
        of rationals (DimensionError for a wrong length); an inconsistent
        checker certifies nothing."""
        if not self.consistent:
            return False
        y = self.scaled(y, self.out_dim)
        U, den = self.scaled(u, self.n_free)
        return self.rows_hold(U, den, 0, self.n_free) and self.projects_to(U, den, y)

    def proves_max(self, u, c_ints) -> bool:
        """Whether a dual certificate proves max <c, y> over the projection
        equal to <c, y*>, for a reduced point u that :meth:`certifies` y* and
        c = c_ints up to a positive scale.  R = M_red^T c is cancelled column
        by column from the last, each nonzero R_j by a row of A_red whose
        last nonzero is in column j, has R_j's sign and is tight at u; a
        column with no such row gives False.  The multipliers are a y >= 0
        on rows tight at u with A_red^T y = R, so by weak duality nothing
        beats u.  Sound on any reduced system, complete where the greedy
        finds y, as on a chain's triangular rows at a canonical preimage.  u
        and c_ints of the wrong length raise DimensionError.
        """
        if not self.consistent:
            return False
        U, den = self.scaled(u, self.n_free)
        if len(c_ints) != self.out_dim:
            raise DimensionError(f"{len(c_ints)} objective coefficients, not {self.out_dim}")
        _, by_last, M, _ = self.int_rows()
        R = [0] * self.n_free  # F M_red^T c, with M_red's rows over their common F
        for ci, (row, _) in zip(c_ints, M):
            for j, e in row:
                R[j] += ci * e
        for j in reversed(range(self.n_free)):
            r = R.pop()
            if not r:
                continue
            for row, rhs, _ in by_last[j]:
                a = row[-1][1]
                if (a > 0) == (r > 0) and sum(c * U[i] for i, c in row) == rhs * den:
                    break
            else:
                return False
            s = abs(r)  # R <- |a| R - sign(a) r row keeps the multiplier s / |a| >= 0
            R = [abs(a) * e for e in R]
            for i, c in row[:-1]:
                R[i] -= s * c
        return True

    def feasible(self, y) -> bool:
        """Is A_red w <= b_red, M_red w = y - t_red feasible?  On float data one
        :func:`solve_system` with a zero objective decides it in phase 1.  On
        exact data, with y = Y/D, phase 1 runs on a copy of the factored
        dictionary with every right-hand side scaled by D > 0 (which keeps
        integers and feasibility) and the projection rows as artificial
        equations."""
        if not self.consistent:
            return False
        if self.backend == FLOAT:
            res = solve_system(self.n_free, list(zip(self.A_red, self.b_red)),
                               list(zip(self.M_red, vec_sub(y, self.t_red))),
                               [0.0] * self.n_free, backend=FLOAT)
            return res.status == OPTIMAL
        Y, D = self.scaled(y, self.out_dim)
        if not self._tableau():
            return False
        slack, labels, cols, proj, q, scale = self._factored
        rows = [row[:-1] + [row[-1] * D] for row in slack]
        art = [row[:-1] + [row[-1] * D + q * scale * y] for row, y in zip(proj, Y)]
        art = [row if row[-1] >= 0 else [-e for e in row] for row in art]
        # artificial labels rank after every column, so they never re-enter
        ncols = self.n_free + len(self.int_rows()[0])
        basis = labels + list(range(ncols, ncols + len(proj)))
        rows += art
        core = _ExactCore(rows + [_phase1_row(art, len(cols) + 1, 0)], basis, cols[:], q)
        core.run_phase(len(rows), len(rows), ncols)
        return core.rows[-1][-1] == 0

    def seed_from_raw(self, z_raw) -> bool:
        """Register a start w_feas for the objective solves.  An exact
        witness (a :class:`ScaledPoint` or a tuple) is already a reduced
        point and is registered as a ScaledPoint; :meth:`_factor` shifts the
        integer rows by it when it runs, and solves for a start when the
        shift is not >= 0.
        A float one is a raw point of Q, solved from N w = z_raw - z_part
        (False when z_raw is off Q's equations), and registered with b_shift
        = b_red - A_red w_feas, the rows the float pivot tree starts from.
        The name is kept for perfbench's ``lp.seed`` span."""
        if not self.consistent or self.w_feas is not None:
            return self.w_feas is not None
        if self.backend == EXACT:
            self.w_feas = self.scaled(z_raw, self.n_free)
            return True
        target = vec_sub(z_raw, self.z_part)
        part, _ = affine_solution_space(
            tuple(zip(*self.N_cols)), target, dim=self.n_free, backend=self.backend
        )
        if part is None:
            return False
        self.w_feas = part
        self.b_shift = tuple(
            rhs - dot(row, part) for row, rhs in zip(self.A_red, self.b_red)
        )
        return True

    def _factor(self):
        """Factor the exact dictionary once; returns None when A_red w <= b_red
        is infeasible.

        The start w0 is the registered seed when b_red - A_red w0 >= 0,
        else the point of one exact solve, so the slack basis of
        A_red d + s = b_red - A_red w0 is feasible.  Each free column d_j is
        pivoted into the basis once: a ratio test over the slack rows keeps
        them feasible, and the column is negated when only its minus
        direction is blocked.  A column that is zero in every slack row
        cannot enter and is a lineality direction; its slot gets a negated
        copy, labelled below every column, so Bland's rule enters a
        lineality direction first and finds it unblocked.  The
        projection rows [L M_i | -L y0_i], with y0 = M_red w0 + t_red and
        L > 0 making them integers, ride along as objective rows, so each
        ends as q times its row in the factored basis.  What is left is
        ``(slack, labels, cols, proj, q, L)``: the slack rows and the
        projection rows over the same slots, the labels (d_j is j, slack i
        is n + i, copy t is -1 - t) of the basic variables and of the slots,
        and the last pivot q.
        """
        A, _, M, F = self.int_rows()
        n, m = self.n_free, len(A)

        def dense(pairs, rhs, w):  # [c D | rhs D - <c, W>], for w = W/D
            row = [0] * n + [rhs * w.den - sum(c * w.nums[j] for j, c in pairs)]
            for j, c in pairs:
                row[j] = c * w.den
            return row

        def lowest(rows, f):  # integer rows over f > 0, divided by their gcd with f
            g = gcd(f, *(e for row in rows for e in row))
            return [[e // g for e in row] for row in rows], f // g

        def shifted(w):  # A_red d <= b_red - A_red w, each row in lowest terms
            return [lowest([dense(pairs, rhs, w)], f * w.den)[0][0] for pairs, rhs, f in A]

        w0 = self.w_feas
        rows = None if w0 is None else shifted(w0)
        if rows is None or any(row[-1] < 0 for row in rows):
            rows = shifted(ScaledPoint((0,) * n, 1))  # A_red and b_red themselves
            res = solve_system(n, [(row[:-1], row[-1]) for row in rows], (), (0,) * n)
            if res.status != OPTIMAL:
                return None
            w0 = ScaledPoint.of(res.point)
            rows = shifted(w0)
        proj, scale = lowest([dense(pairs, -t, w0) for pairs, t in M], F * w0.den)
        rows += proj
        core, k = _ExactCore(rows, list(range(n, n + m)), list(range(n))), m
        for j in range(n):  # slot j holds d_j until d_j enters; rows[:k] are slack rows
            if not any(rows[i][j] > 0 for i in range(k)):
                if not any(rows[i][j] for i in range(k)):
                    continue
                for row in rows:
                    row[j] = -row[j]
            r = core._ratio_row(j, k)
            core.pivot(r, j)
            k -= 1
            rows[r], rows[k] = rows[k], rows[r]
            core.basis[r], core.basis[k] = core.basis[k], core.basis[r]
        self.pivots += core.pivots
        lineal = [s for s, label in enumerate(core.cols) if label < n]
        slack, proj = ([row[:-1] + [-row[s] for s in lineal] + row[-1:] for row in part]
                       for part in (rows[:k], rows[m:]))
        return slack, core.basis[:k], core.cols + [-1 - t for t in lineal], proj, core.q, scale

    def _tableau(self):
        if self._factored is None:
            self._factored = self._factor() or ()
        return self._factored

    def maximize_projected_all(self, objectives):
        """:meth:`maximize_projected` of each objective, as a list; float
        objectives are solved as one pivot tree (:func:`_float_optima`)."""
        if self.backend != FLOAT or not self.consistent:
            return [self.maximize_projected(c) for c in objectives]
        consts = [dot(c, self.t_red) for c in objectives]
        cols = list(zip(*self.M_red))
        objs = [tuple(dot(c, col) for col in cols) for c in objectives]
        seeded = self.w_feas is not None
        rows = list(zip(self.A_red, self.b_shift if seeded else self.b_red))
        results = (_float_optima(self.n_free, rows, (), objs, False)
                   or [LPResult(INFEASIBLE)] * len(objs))
        out = []
        for obj, const, res in zip(objs, consts, results):
            if res.status != OPTIMAL:
                out.append((res.status, None))
                continue
            value = res.value + dot(obj, self.w_feas) if seeded else res.value
            out.append((OPTIMAL, value + const))
        return out

    def maximize_projected(self, c):
        """Maximise <c, projection(z)> over Q; returns (status, value)."""
        if not self.consistent:
            return INFEASIBLE, None
        if self.backend == FLOAT:
            return self.maximize_projected_all([c])[0]
        c_ints, c_den = self.scaled(c, self.out_dim)
        if not self._tableau():
            return INFEASIBLE, None
        slack, labels, cols, proj, q, scale = self._factored
        top = [0] * (len(cols) + 1)
        for ci, row in zip(c_ints, proj):
            if ci:
                top = [t + ci * e for t, e in zip(top, row)]
        core = _ExactCore(slack + [top], labels[:], cols[:], q)
        optimal = core.run_phase(len(slack), len(slack), self.n_free + len(self.int_rows()[0]))
        self.pivots += core.pivots
        if not optimal:
            return UNBOUNDED, None
        return OPTIMAL, Fraction(-core.rows[-1][-1], core.q * scale * c_den)
