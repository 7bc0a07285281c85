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
rather than split into inequality pairs.
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
    """Two-phase simplex on integer data with fraction-free pivoting."""

    def __init__(self, n_cols):
        self.n_cols = n_cols  # structural columns (vars + slacks + arts)
        self.rows = []        # constraint rows, each length n_cols + 1
        self.basis = []
        self.q = 1            # previous pivot; true tableau = rows / q

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
            self.basis[r] = col
        raise AssertionError("pivot limit hit in exact mode")


def _solve_exact(n_vars, ineqs, eqs, objective, sense, nonneg,
                 feasibility_only, want_duals):
    nv = n_vars if nonneg else 2 * n_vars

    def split(coeffs):
        if nonneg:
            return list(coeffs)
        return list(coeffs) + [-c for c in coeffs]

    staged = []  # (int_row over nv cols, rhs int, slack_sign or 0, mult)
    for coeffs, rhs in ineqs:
        row, mult = int_scale(split(coeffs) + [Fraction(rhs)])
        r, beta = row[:-1], row[-1]
        sign = 1
        if beta < 0:
            r = [-e for e in r]
            beta, sign = -beta, -1
        staged.append((r, beta, sign, mult))
    for coeffs, rhs in eqs:
        row, mult = int_scale(split(coeffs) + [Fraction(rhs)])
        r, beta = row[:-1], row[-1]
        if beta < 0:
            r, beta = [-e for e in r], -beta
        staged.append((r, beta, 0, mult))

    n_slack = len(ineqs)
    art_of_row = {}
    n_art = 0
    for i, (_, _, sign, _) in enumerate(staged):
        if sign != 1:  # flipped inequality or equation needs an artificial
            art_of_row[i] = nv + n_slack + n_art
            n_art += 1
    ncols = nv + n_slack + n_art

    core = _ExactCore(ncols)
    for i, (r, beta, sign, _) in enumerate(staged):
        full = r + [0] * (n_slack + n_art) + [beta]
        if sign != 0:
            full[nv + i] = sign  # rows are ordered inequalities-first
        if i in art_of_row:
            full[art_of_row[i]] = 1
            core.basis.append(art_of_row[i])
        else:
            core.basis.append(nv + i)
        core.rows.append(full)
    m = len(core.rows)

    obj_frac = [Fraction(c) for c in objective]
    if sense == "min":
        obj_frac = [-c for c in obj_frac]
    obj_int, obj_scale = int_scale(split(obj_frac))
    p2 = obj_int + [0] * (n_slack + n_art) + [0]

    p1 = [0] * (ncols + 1)
    for i in art_of_row:
        row = core.rows[i]
        for j in range(ncols + 1):
            p1[j] += row[j]
    for col in art_of_row.values():
        p1[col] -= 1

    core.rows.append(p1)
    core.rows.append(p2)
    p1_idx, p2_idx = m, m + 1

    if n_art:
        core.run_phase(p1_idx, m, range(ncols))
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
            core.basis[i] = col

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
            Fraction(-p2row[nv + i], q) / obj_scale * staged[i][3]
            for i in range(n_slack)
        )
        if sense == "min":
            dual = tuple(-y for y in dual)
    return LPResult(OPTIMAL, value, x, dual)


def _solve_float(n_vars, ineqs, eqs, objective, sense, nonneg,
                 feasibility_only, tol):
    nv = n_vars if nonneg else 2 * n_vars

    def split(coeffs):
        if nonneg:
            return [float(c) for c in coeffs]
        out = [float(c) for c in coeffs]
        return out + [-c for c in out]

    staged = []
    for coeffs, rhs in ineqs:
        r, beta, sign = split(coeffs), float(rhs), 1
        if beta < 0:
            r, beta, sign = [-e for e in r], -beta, -1
        staged.append((r, beta, sign))
    for coeffs, rhs in eqs:
        r, beta = split(coeffs), float(rhs)
        if beta < 0:
            r, beta = [-e for e in r], -beta
        staged.append((r, beta, 0))

    n_slack = len(ineqs)
    art_of_row = {}
    n_art = 0
    for i, (_, _, sign) in enumerate(staged):
        if sign != 1:
            art_of_row[i] = nv + n_slack + n_art
            n_art += 1
    ncols = nv + n_slack + n_art

    rows, basis = [], []
    for i, (r, beta, sign) in enumerate(staged):
        full = r + [0.0] * (n_slack + n_art) + [beta]
        if sign != 0:
            full[nv + i] = float(sign)
        if i in art_of_row:
            full[art_of_row[i]] = 1.0
            basis.append(art_of_row[i])
        else:
            basis.append(nv + i)
        rows.append(full)
    m = len(rows)

    obj = split([-c for c in objective] if sense == "min" else objective)
    p2 = obj + [0.0] * (n_slack + n_art) + [0.0]
    p1 = [0.0] * (ncols + 1)
    for i in art_of_row:
        for j in range(ncols + 1):
            p1[j] += rows[i][j]
    for col in art_of_row.values():
        p1[col] -= 1.0
    rows.append(p1)
    rows.append(p2)
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

    feas_eps = max(tol, 1e-12) * (10.0 + sum(beta for _, beta, _ in staged))
    if n_art:
        run(p1_idx, range(ncols))
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
    """Per-formulation LP helper: equation elimination happens once, then
    membership queries and projected-objective optimizations reuse the
    reduced inequality system (only right-hand sides change per query)."""

    def __init__(self, ef, tol: float = DEFAULT_TOL):
        from .polyhedra import EmptyPolyhedronError, reduce_equations

        self.backend = ef.Q.backend
        self.w_feas = None
        self.b_shift = None
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
        """Register a known feasible raw point; later objective solves then
        start from a shifted system with nonnegative right-hand sides and
        skip phase 1 entirely."""
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

    def maximize_projected(self, c, sense: str = "max", tol: float = DEFAULT_TOL):
        """Optimize <c, projection(z)> over Q; returns (status, value)."""
        if not self.consistent:
            return INFEASIBLE, None
        cols = tuple(zip(*self.M_red)) if self.M_red else ()
        obj = tuple(dot(c, col) for col in cols)
        const = dot(c, self.t_red)
        if self.w_feas is not None:
            res = solve_system(
                self.n_free,
                list(zip(self.A_red, self.b_shift)),
                (),
                obj,
                sense=sense,
                backend=self.backend,
                tol=tol,
            )
            if res.status != OPTIMAL:
                return res.status, None
            return OPTIMAL, res.value + dot(obj, self.w_feas) + const
        res = solve_system(
            self.n_free,
            list(zip(self.A_red, self.b_red)),
            (),
            obj,
            sense=sense,
            backend=self.backend,
            tol=tol,
        )
        if res.status != OPTIMAL:
            return res.status, None
        return OPTIMAL, res.value + const
