"""Self-contained two-phase simplex over both numeric backends.

The exact path pivots on integer tableaus: every row is scaled to integers
up front and each pivot uses the previous-pivot division rule, so entries
stay integers (they are subdeterminants of the input) and no per-operation
gcd normalization is paid.  Entry/selection rules are Bland's, which
guarantees termination without perturbation.  The float path is a classic
dense tableau with largest-coefficient pricing and a symmetric tolerance.

Variables are free by default (internally split into positive and negative
parts); ``nonneg=True`` skips the split, which the convex-hull membership
oracle uses for its multipliers.  Equations are handled natively in phase 1
rather than split into inequality pairs.  Both backends stage their tableau
in one function.

:class:`ProjectionChecker` solves exact projected objectives on a
vertex-start tableau instead: once per formulation it starts from a feasible
point (a registered seed, else one exact solve), pivots every free variable
into the basis and keeps only the slack rows, about half the rows and
columns of the split two-phase tableau.  Each objective is priced from the
free rows and solved by Bland's rule on a copy of that slack-only tableau,
with no phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numeric import DEFAULT_TOL, EXACT, FLOAT, dot, int_scale, vec_sub

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 1_000_000
_MAX_PIVOTS_FLOAT = 20_000


class LPNumericError(RuntimeError):
    """Float-mode numeric failure, distinct from a clean infeasibility."""


@dataclass(frozen=True)
class LPProblem:
    constraints: "HPolyhedron"  # noqa: F821 - duck-typed, see polyhedra
    objective: tuple
    sense: str = "max"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[object] = None
    point: Optional[tuple] = None
    dual: Optional[tuple] = None


class _ExactCore:
    """Simplex phases on integer rows with fraction-free pivoting."""

    def __init__(self, rows, basis, q=1):
        self.rows = rows      # constraint rows, then objective rows; rhs last
        self.basis = basis    # basic column of each constraint row
        self.q = q            # previous pivot; true tableau = rows / q
        self.pivots = 0

    def _pivot(self, r, c):
        rows = self.rows
        q = self.q
        piv = rows[r][c]
        assert piv > 0
        lead = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            cur = rows[i]
            f = cur[c]
            if f:
                rows[i] = [(piv * a - f * b) // q for a, b in zip(cur, lead)]
            elif piv != q:
                rows[i] = [(piv * a) // q for a in cur]
        self.q = piv
        self.basis[r] = c
        self.pivots += 1

    def _ratio_row(self, col, m):
        """Bland leaving row for entering ``col`` among the first m rows."""
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

    def run_phase(self, obj_idx, m, allowed_cols):
        """Pivot until the objective row ``obj_idx`` has no positive reduced
        cost among ``allowed_cols``; returns False on unboundedness."""
        rows = self.rows
        for _ in range(_MAX_PIVOTS):
            obj = rows[obj_idx]
            col = -1
            for j in allowed_cols:
                if obj[j] > 0:
                    col = j
                    break
            if col < 0:
                return True
            r = self._ratio_row(col, m)
            if r < 0:
                return False
            self._pivot(r, col)
        raise AssertionError("pivot limit hit in exact mode")


def _stage(n_vars, ineqs, eqs, objective, sense, nonneg, exact):
    """Phase-1 tableau shared by both backends.

    Returns ``(rows, basis, art_of_row, nv, mults, obj_scale)``: the rows
    [split variables | slacks | artificials | rhs], each flipped to a
    nonnegative rhs, followed by the phase-1 and phase-2 objective rows; the
    starting basis; the artificial column of each row that needs one; the
    split variable count; and, on the exact backend, each row's integer
    multiplier and the objective's (both 1 on floats).
    """
    to, num = (Fraction, int) if exact else (float, float)

    def split(coeffs):
        out = [to(c) for c in coeffs]
        return out if nonneg else out + [-c for c in out]

    staged = []  # (row over the split variables + rhs, slack sign or 0, mult)
    for kind, system in ((1, ineqs), (0, eqs)):
        for coeffs, rhs in system:
            row, mult, sign = split(coeffs) + [to(rhs)], 1, kind
            if exact:
                row, mult = int_scale(row)
            if row[-1] < 0:
                row, sign = [-e for e in row], -sign
            staged.append((row, sign, mult))

    nv = n_vars if nonneg else 2 * n_vars
    n_slack = len(ineqs)
    n_art = sum(1 for _, sign, _ in staged if sign != 1)
    ncols = nv + n_slack + n_art
    zero = num(0)
    rows, basis, art_of_row = [], [], {}
    for i, (row, sign, _) in enumerate(staged):
        full = row[:-1] + [zero] * (n_slack + n_art) + row[-1:]
        if sign != 0:
            full[nv + i] = num(sign)  # rows are ordered inequalities-first
        if sign != 1:  # flipped inequality or equation needs an artificial
            art_of_row[i] = nv + n_slack + len(art_of_row)
            full[art_of_row[i]] = num(1)
            basis.append(art_of_row[i])
        else:
            basis.append(nv + i)
        rows.append(full)

    p1 = [zero] * (ncols + 1)
    for i in art_of_row:
        for j in range(ncols + 1):
            p1[j] += rows[i][j]
    for col in art_of_row.values():
        p1[col] -= num(1)
    obj, obj_scale = split([-c for c in objective] if sense == "min" else objective), 1
    if exact:
        obj, obj_scale = int_scale(obj)
    rows += [p1, obj + [zero] * (n_slack + n_art + 1)]
    return rows, basis, art_of_row, nv, [mult for _, _, mult in staged], obj_scale


def _solve_exact(n_vars, ineqs, eqs, objective, sense, nonneg,
                 feasibility_only, want_duals):
    rows, basis, art_of_row, nv, mults, obj_scale = _stage(
        n_vars, ineqs, eqs, objective, sense, nonneg, True
    )
    core = _ExactCore(rows, basis)
    n_slack = len(ineqs)
    m = len(basis)
    p1_idx, p2_idx = m, m + 1

    if art_of_row:
        core.run_phase(p1_idx, m, range(len(rows[0]) - 1))
        if core.rows[p1_idx][-1] != 0:
            return LPResult(INFEASIBLE)
        if feasibility_only:
            return LPResult(OPTIMAL)
        # drive leftover artificials out of the basis or drop their rows
        art_cols = set(art_of_row.values())
        for i in range(m - 1, -1, -1):
            if core.basis[i] not in art_cols:
                continue
            row = core.rows[i]
            assert row[-1] == 0  # basic artificials sit at value zero here
            col = next((j for j in range(nv + n_slack) if row[j] != 0), -1)
            if col < 0:
                del core.rows[i]
                del core.basis[i]
                m -= 1
                p1_idx -= 1
                p2_idx -= 1
                continue
            if row[col] < 0:
                core.rows[i] = [-e for e in row]
            core._pivot(i, col)

    if feasibility_only:
        return LPResult(OPTIMAL)

    structural = range(nv + n_slack)
    if not core.run_phase(p2_idx, m, structural):
        return LPResult(UNBOUNDED)

    q = core.q
    vals = {core.basis[i]: Fraction(core.rows[i][-1], q) for i in range(m)}
    if nonneg:
        x = tuple(vals.get(j, Fraction(0)) for j in range(n_vars))
    else:
        x = tuple(
            vals.get(j, Fraction(0)) - vals.get(n_vars + j, Fraction(0))
            for j in range(n_vars)
        )
    value = Fraction(-core.rows[p2_idx][-1], q) / obj_scale
    if sense == "min":
        value = -value

    dual = None
    if want_duals and not art_of_row:
        # clean extraction only for pure, unflipped inequality systems
        p2row = core.rows[p2_idx]
        dual = tuple(
            Fraction(-p2row[nv + i], q) / obj_scale * mults[i]
            for i in range(n_slack)
        )
        if sense == "min":
            dual = tuple(-y for y in dual)
    return LPResult(OPTIMAL, value, x, dual)


def _solve_float(n_vars, ineqs, eqs, objective, sense, nonneg,
                 feasibility_only, tol):
    rows, basis, art_of_row, nv, _, _ = _stage(
        n_vars, ineqs, eqs, objective, sense, nonneg, False
    )
    n_slack = len(ineqs)
    m = len(basis)
    p1_idx, p2_idx = m, m + 1

    def pivot(r, c):
        lead = rows[r]
        piv = lead[c]
        rows[r] = [e / piv for e in lead]
        lead = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if abs(f) > 0.0:
                cur = rows[i]
                rows[i] = [a - f * b for a, b in zip(cur, lead)]

    def run(obj_idx, allowed):
        for _ in range(_MAX_PIVOTS_FLOAT):
            objrow = rows[obj_idx]
            col, best = -1, tol
            for j in allowed:
                if objrow[j] > best:
                    col, best = j, objrow[j]
            if col < 0:
                return True
            r, best_ratio = -1, None
            for i in range(m):
                a = rows[i][col]
                if a > tol:
                    ratio = rows[i][-1] / a
                    if best_ratio is None or ratio < best_ratio - tol:
                        r, best_ratio = i, ratio
            if r < 0:
                return False
            pivot(r, col)
            basis[r] = col
        raise LPNumericError("float simplex failed to converge")

    feas_eps = max(tol, 1e-12) * (10.0 + sum(rows[i][-1] for i in range(m)))
    if art_of_row:
        run(p1_idx, range(len(rows[0]) - 1))
        if rows[p1_idx][-1] > feas_eps:
            return LPResult(INFEASIBLE)
    if feasibility_only:
        return LPResult(OPTIMAL)

    if not run(p2_idx, range(nv + n_slack)):
        return LPResult(UNBOUNDED)

    vals = {basis[i]: rows[i][-1] for i in range(m)}
    if nonneg:
        x = tuple(vals.get(j, 0.0) for j in range(n_vars))
    else:
        x = tuple(vals.get(j, 0.0) - vals.get(n_vars + j, 0.0) for j in range(n_vars))
    value = -rows[p2_idx][-1]
    if sense == "min":
        value = -value
    return LPResult(OPTIMAL, value, x)


def solve_system(
    n_vars: int,
    ineqs: Sequence,
    eqs: Sequence,
    objective: Sequence,
    sense: str = "max",
    backend: str = EXACT,
    nonneg: bool = False,
    tol: float = DEFAULT_TOL,
    feasibility_only: bool = False,
    want_duals: bool = False,
) -> LPResult:
    """Low-level entry point on raw rows; the public API wraps polyhedra."""
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', not {sense!r}")
    if backend == EXACT:
        return _solve_exact(
            n_vars, ineqs, eqs, objective, sense, nonneg, feasibility_only, want_duals
        )
    if backend == FLOAT:
        return _solve_float(
            n_vars, ineqs, eqs, objective, sense, nonneg, feasibility_only, tol
        )
    raise ValueError(f"unknown backend {backend!r}")


def solve(problem: LPProblem, tol: float = DEFAULT_TOL, want_duals: bool = False) -> LPResult:
    """Two-phase simplex over the problem's polyhedron.

    Rational mode pivots by Bland's rule and returns exact optima; float
    mode prices by largest coefficient under the given tolerance and raises
    :class:`LPNumericError` (never a silent wrong status) when it cannot
    converge.
    """
    Q = problem.constraints
    if len(problem.objective) != Q.dim:
        raise ValueError("objective dimension != constraint dimension")
    return solve_system(
        Q.dim,
        list(zip(Q.A, Q.b)),
        list(zip(Q.C, Q.d)),
        problem.objective,
        sense=problem.sense,
        backend=Q.backend,
        tol=tol,
        want_duals=want_duals,
    )


def pinned(Q, pins):
    """Copy of Q with coordinates fixed by (index, value) pairs as equations."""
    from .polyhedra import HPolyhedron  # circular-import guard

    one = Fraction(1) if Q.backend == EXACT else 1.0
    zero = Fraction(0) if Q.backend == EXACT else 0.0
    C = list(Q.C)
    d = list(Q.d)
    for idx, val in pins:
        if not 0 <= idx < Q.dim:
            raise IndexError(f"pin index {idx} out of range for dim {Q.dim}")
        row = [zero] * Q.dim
        row[idx] = one
        C.append(tuple(row))
        d.append(val if Q.backend == FLOAT else Fraction(val))
    return HPolyhedron(Q.dim, Q.A, Q.b, tuple(C), tuple(d), Q.backend)


def feasible(Q, pins=(), tol: float = DEFAULT_TOL) -> bool:
    """Phase-1 feasibility of Q with optionally pinned coordinates."""
    system = pinned(Q, pins) if pins else Q
    zero = Fraction(0) if Q.backend == EXACT else 0.0
    res = solve_system(
        system.dim,
        list(zip(system.A, system.b)),
        list(zip(system.C, system.d)),
        [zero] * system.dim,
        backend=system.backend,
        tol=tol,
        feasibility_only=True,
    )
    return res.status == OPTIMAL


def in_hull(y, V, tol: float = DEFAULT_TOL) -> bool:
    """Membership of y in conv(V) via the multiplier LP
    {lambda >= 0, sum lambda = 1, sum lambda_i v_i = y}."""
    if len(y) != V.dim:
        raise ValueError("point dimension != polytope dimension")
    k = len(V.vertices)
    one = Fraction(1) if V.backend == EXACT else 1.0
    eqs = []
    for dcoord in range(V.dim):
        eqs.append((tuple(v[dcoord] for v in V.vertices), y[dcoord]))
    eqs.append(((one,) * k, one))
    res = solve_system(
        k, (), eqs, (one,) * k, backend=V.backend, nonneg=True, tol=tol,
        feasibility_only=True,
    )
    return res.status == OPTIMAL


class ProjectionChecker:
    """Per-formulation LP helper over the reduced system A_red w <= b_red:
    equation elimination happens once, then membership queries and
    projected-objective optimizations reuse it.

    Exact objectives share one integer tableau, factored on the first call
    (:meth:`_factor`); each objective then pivots only among slack columns.
    Float objectives take one two-phase solve each.
    """

    def __init__(self, ef, tol: float = DEFAULT_TOL):
        from .polyhedra import EmptyPolyhedronError, reduce_equations

        self.backend = ef.Q.backend
        self.w_feas = None
        self.b_shift = None
        self.pivots = 0  # exact objective-path pivots, factoring included
        self._factored = None
        try:
            red = reduce_equations(ef, tol)
        except EmptyPolyhedronError as exc:
            self.consistent, self.inconsistency = False, exc
            return
        self.consistent, self.inconsistency = True, None
        self.n_free = len(red.basis)
        self.A_red, self.b_red = red.A_red, red.b_red
        self.M_red, self.t_red = red.M_red, red.t_red
        self.z_part = red.part
        self.N_cols = red.basis

    def feasible(self, y, tol: float = DEFAULT_TOL) -> bool:
        if not self.consistent:
            return False
        rhs = vec_sub(y, self.t_red)
        eqs = list(zip(self.M_red, rhs))
        res = solve_system(
            self.n_free,
            list(zip(self.A_red, self.b_red)),
            eqs,
            [Fraction(0) if self.backend == EXACT else 0.0] * self.n_free,
            backend=self.backend,
            tol=tol,
            feasibility_only=True,
        )
        return res.status == OPTIMAL

    def seed_from_raw(self, z_raw, tol: float = DEFAULT_TOL) -> bool:
        """Register a known feasible raw point w_feas, with the shifted
        right-hand sides b_shift = b_red - A_red w_feas >= 0; objective
        solves then start from it and skip phase 1 entirely."""
        from .numeric import affine_solution_space

        if not self.consistent or self.w_feas is not None:
            return self.w_feas is not None
        rows = tuple(zip(*self.N_cols)) if self.N_cols else ()
        target = vec_sub(z_raw, self.z_part)
        if not rows:
            self.w_feas = ()
            self.b_shift = self.b_red
            return True
        part, _ = affine_solution_space(rows, target, tol)
        if part is None:
            return False
        self.w_feas = part
        self.b_shift = tuple(
            rhs - dot(row, part) for row, rhs in zip(self.A_red, self.b_red)
        )
        return True

    def _factor(self):
        """Factor the exact tableau once; returns None when A_red w <= b_red
        is infeasible.

        The start w0 is the registered seed, else the point of one exact
        solve, so the slack basis of A_red d + s = b_red - A_red w0 is
        feasible.  Each free column d_j is pivoted into the basis once: a
        ratio test over the slack rows keeps them feasible, and the column is
        negated when only its minus direction is blocked.  A column that is
        zero in every slack row cannot enter and is a lineality direction.
        What is left is ``(slack, labels, free, lineal, signs, q, w0)``: the
        slack rows over the m slack columns and rhs, with the slack column
        that is basic in each; the free rows (column, full row) that price an
        objective; the lineality columns; the column signs; the last pivot.
        """
        w0, b = self.w_feas, self.b_shift
        if w0 is None or any(v < 0 for v in b):
            zero = (Fraction(0),) * self.n_free
            res = solve_system(self.n_free, list(zip(self.A_red, self.b_red)), (), zero)
            if res.status != OPTIMAL:
                return None
            w0 = res.point
            b = tuple(rhs - dot(row, w0) for row, rhs in zip(self.A_red, self.b_red))
        n, m = self.n_free, len(b)
        rows = []
        for i, (row, rhs) in enumerate(zip(self.A_red, b)):
            ints, _ = int_scale(tuple(row) + (rhs,))
            rows.append(ints[:-1] + [0] * m + ints[-1:])
            rows[i][n + i] = 1
        core = _ExactCore(rows, list(range(n, n + m)))
        signs, lineal, k = [1] * n, [], m  # rows[:k] are the slack rows
        for j in range(n):
            if not any(rows[i][j] > 0 for i in range(k)):
                if not any(rows[i][j] for i in range(k)):
                    lineal.append(j)
                    continue
                for row in rows:
                    row[j] = -row[j]
                signs[j] = -1
            r = core._ratio_row(j, k)
            core._pivot(r, j)
            k -= 1
            rows[r], rows[k] = rows[k], rows[r]
            core.basis[r], core.basis[k] = core.basis[k], core.basis[r]
        self.pivots += core.pivots
        slack = [row[n:] for row in rows[:k]]
        labels = [col - n for col in core.basis[:k]]
        free = list(zip(core.basis[k:], rows[k:]))
        return slack, labels, free, lineal, signs, core.q, w0

    def maximize_projected(self, c, sense: str = "max", tol: float = DEFAULT_TOL):
        """Optimize <c, projection(z)> over Q; returns (status, value)."""
        if sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', not {sense!r}")
        if not self.consistent:
            return INFEASIBLE, None
        const = dot(c, self.t_red)
        cols = tuple(zip(*self.M_red)) if self.M_red else ()
        obj = tuple(dot(c, col) for col in cols)
        if self.backend == FLOAT:
            seeded = self.w_feas is not None
            res = solve_system(
                self.n_free,
                list(zip(self.A_red, self.b_shift if seeded else self.b_red)),
                (),
                obj,
                sense=sense,
                backend=self.backend,
                tol=tol,
            )
            if res.status != OPTIMAL:
                return res.status, None
            if seeded:
                return OPTIMAL, res.value + dot(obj, self.w_feas) + const
            return OPTIMAL, res.value + const
        if self._factored is None:
            self._factored = self._factor() or ()
        if not self._factored:
            return INFEASIBLE, None
        slack, labels, free, lineal, signs, q, w0 = self._factored
        sgn = 1 if sense == "max" else -1
        g, scale = int_scale(sgn * s * e for s, e in zip(signs, obj))
        # reduced costs: q*g minus g_j times the row where d_j is basic
        top = [q * e for e in g] + [0] * (len(self.b_red) + 1)
        for j, row in free:
            f = g[j]
            if f:
                top = [t - f * e for t, e in zip(top, row)]
        if any(top[j] for j in lineal):
            return UNBOUNDED, None
        core = _ExactCore([row[:] for row in slack] + [top[self.n_free:]], labels[:], q)
        optimal = core.run_phase(len(slack), len(slack), range(len(self.b_red)))
        self.pivots += core.pivots
        if not optimal:
            return UNBOUNDED, None
        value = Fraction(-core.rows[-1][-1], core.q * scale)
        return OPTIMAL, sgn * value + dot(obj, w0) + const
