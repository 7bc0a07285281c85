"""Verification harness: projection-equality certification against
brute-force vertex sets, size accounting, chain-condition checks, and
affine-generator spot checks.

Projection equality is certified in two directions: every oracle vertex
must be feasible for the formulation (containment), and for a batch of
seeded random integer objectives the LP optimum over the formulation must
match the brute-force maximum over the oracle vertices (support-function
equality on sampled directions).  In the exact backend both halves are
zero-tolerance, so a passing report is a proof for the sampled data.  An
exact objective is first proved by a dual certificate at the witness of its
brute-force maximiser, which shows that no point of the formulation beats
that vertex; only an objective without one is solved by the simplex method.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from random import Random
from typing import Sequence

from . import lp
from .numeric import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    DimensionError,
    ScaledPoint,
    int_scale,
    scalar_to_json,
    scalars_eq,
    dot,
    vectors_eq,
)
from .oracles import VertexSet
from .polyhedra import (
    ExtendedFormulation,
    PolyhedralRelation,
    _witness_blocks,
    projection_checker,
)
from .reflections import apply_preimage_chain, reflect_point

_FIBER_OBJECTIVES = 10


@dataclass
class VerificationReport:
    """The vertex and objective checks of :func:`verify_projection_equality`,
    and, under ``include_timing``, the path each took and where the time
    went.  :attr:`passed` when every check it ran passed."""

    label: str
    backend: str
    vertex_total: int = 0
    vertex_passed: int = 0
    objective_total: int = 0
    objective_passed: int = 0
    objective_max_deviation: object = 0
    seed: int = 0
    wall_time_s: float = 0.0
    witness_hits: int = 0
    lp_fallbacks: int = 0
    lp_pivots: int = 0
    lp_certified: int = 0
    lp_exact: int = 0
    phases: dict = field(default_factory=dict)  # seconds per certification phase

    @property
    def passed(self) -> bool:
        return (self.vertex_passed == self.vertex_total
                and self.objective_passed == self.objective_total)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "label": self.label,
            "backend": self.backend,
            "passed": self.passed,
            "vertex_checks": {"total": self.vertex_total, "passed": self.vertex_passed},
            "objective_checks": {
                "total": self.objective_total,
                "passed": self.objective_passed,
                "max_deviation": scalar_to_json(self.objective_max_deviation),
            },
            "seed": self.seed,
            # an empty list, kept so that every recorded report keeps its bytes
            "hypothesis_checks": [],
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
            out["witness_hits"] = self.witness_hits
            out["lp_fallbacks"] = self.lp_fallbacks
            out["lp_pivots"] = self.lp_pivots
            out["lp_certified"] = self.lp_certified
            out["lp_exact"] = self.lp_exact
            out["phases"] = dict(self.phases)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        # timing is excluded by default so identical runs serialize identically
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)

    def to_text(self) -> str:
        rows = [
            ("formulation", self.label),
            ("backend", self.backend),
            ("vertices in projection", f"{self.vertex_passed}/{self.vertex_total}"),
            ("objective optima equal", f"{self.objective_passed}/{self.objective_total}"),
            ("max objective deviation", str(self.objective_max_deviation)),
        ]
        rows.append(("wall time", f"{self.wall_time_s:.3f}s"))
        rows.append(("overall", "PASS" if self.passed else "FAIL"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def random_objectives(dim: int, count: int, rng: Random, backend: str = EXACT):
    """Seeded integer objectives in [-10,10]^dim, zero vector rejected, so
    a positive count in dimension < 1 raises ValueError."""
    if dim < 1 and count > 0:
        raise ValueError(f"no nonzero objective exists in dimension {dim}")
    out = []
    while len(out) < count:
        c = tuple(rng.randint(-10, 10) for _ in range(dim))
        if any(c):
            if backend == FLOAT:
                c = tuple(float(e) for e in c)
            else:
                c = tuple(Fraction(e) for e in c)
            out.append(c)
    return out


def actual_sizes(ef: ExtendedFormulation) -> dict:
    """Ledger counts plus the equation-eliminated variable count of the
    cached checker; raises :class:`~reflekt.numeric.EmptyPolyhedronError`
    when Q's equations are inconsistent."""
    checker = projection_checker(ef)
    if not checker.consistent:
        raise checker.inconsistency
    return {**ef.ledger.to_dict(), "reduced_variables": checker.n_free}


def size_report(ef: ExtendedFormulation, expected: dict):
    """Integer comparison of the built sizes against expected counts;
    returns (passed, diff) where diff maps each key to (expected, actual)."""
    actual = actual_sizes(ef)
    diff = {}
    for key, want in expected.items():
        got = actual.get(key)
        if got != want:
            diff[key] = (want, got)
    return not diff, diff


def verify_projection_equality(
    ef: ExtendedFormulation,
    V: VertexSet,
    n_objectives: int = 50,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Certify projection(Q) == conv(V) on sampled data.

    (a) every oracle vertex must lie in the projection;
    (b) for seeded random integer objectives, the LP optimum of <c, pi(z)>
        over Q must equal the brute-force maximum over V -- exactly in the
        rational backend, within ``tol`` in float mode.

    ``tol`` is a comparison tolerance (witness steps and float optima) and
    must be finite and ``>= 0`` (ValueError otherwise, NaN included); the
    checker's LPs pivot at ``DEFAULT_TOL`` whatever it is.
    In the rational backend V is first scaled to one integer matrix over a
    common denominator, and each vertex is walked from its row as a
    :class:`~reflekt.numeric.ScaledPoint`.
    A vertex passes (a) through a canonical-preimage witness, which
    :func:`~reflekt.polyhedra._witness_blocks` returns only once it is a
    certificate (``witness_hits``), or else through an LP
    (``lp_fallbacks``); an exact witness is the checker's reduced point,
    read during the walk, and an exact formulation without steps takes none.
    Each vertex gets its own ``_witness_blocks`` call, but the exact walks of
    one call share a memo of walk tails, dropped when the call returns: each
    distinct point below a vertex is walked, and each reduced row its tail
    fixes is checked, once.  The first witness seeds the objective LPs.
    Every brute-force maximum is taken on the same integer rows and is first
    proved at its first maximiser's witness (``lp_certified``, by
    :meth:`~reflekt.lp.ProjectionChecker.proves_max`): such a passing
    objective is a proof, not just a sampled LP match.  The rest
    (``lp_exact``), and all float objectives, go to the checker in one call;
    float ones are solved as one pivot tree that shares phase-2 pivots until
    their paths split.  ``lp_pivots`` counts the exact simplex pivots of the
    objective LPs, and ``phases`` holds the seconds of the vertex and
    objective checks.  The report is labelled ``ef.label``, or
    ``"formulation"`` when that is empty; :func:`size_report` checks sizes.
    A negative ``n_objectives`` or an empty V raises ValueError; 0 objectives
    skip part (b).  A 0-dimensional projection, with no objective to sample,
    raises DimensionError.
    """
    t0 = time.perf_counter()
    if V.dim != ef.projection.out_dim:
        raise DimensionError("vertex dimension != projection output dimension")
    if V.dim < 1:
        raise DimensionError(f"cannot certify a projection of dimension {V.dim}")
    if n_objectives < 0:
        raise ValueError(f"n_objectives must be nonnegative, not {n_objectives}")
    if not V.points:
        raise ValueError("an empty vertex set has no projection to certify")
    if not 0 <= tol < float("inf"):
        raise ValueError(f"tol must be nonnegative and finite, not {tol}")
    backend = ef.backend
    report = VerificationReport(label=ef.label or "formulation", backend=backend, seed=seed)
    checker = projection_checker(ef)
    pivots = checker.pivots  # a fallback may trigger the objectives' factoring

    t_vertex = time.perf_counter()
    exact = backend == EXACT
    walked = V.points
    if exact:
        flat, v_den = int_scale(e for v in V.points for e in v)
        v_rows = [tuple(flat[i : i + V.dim]) for i in range(0, len(flat), V.dim)]
        walked = [ScaledPoint(row, v_den) for row in v_rows]
    memo = {}  # the exact walk's tails, shared by this call's vertices only
    witnesses = []  # each vertex's certified witness, or None
    for v, y in zip(V.points, walked):
        report.vertex_total += 1
        w = _witness_blocks(ef, y, tol, memo)
        witnesses.append(w)
        if w is not None:
            report.vertex_passed += 1
            report.witness_hits += 1
            if checker.w_feas is None:
                checker.seed_from_raw(w)
        else:
            report.lp_fallbacks += 1
            if checker.feasible(v):
                report.vertex_passed += 1

    t_objective = time.perf_counter()
    rng = Random(seed)
    max_dev = Fraction(0) if exact else 0.0
    objectives = random_objectives(ef.projection.out_dim, n_objectives, rng, backend)
    optima = [None] * len(objectives)  # (status, value), once known
    if exact:
        brutes = []
        for k, c in enumerate(objectives):
            c_ints, c_den = int_scale(c)
            dots = [sum(map(mul, c_ints, row)) for row in v_rows]
            best = max(dots)
            brutes.append(Fraction(best, v_den * c_den))
            u = witnesses[dots.index(best)]
            if u is not None and checker.proves_max(u, c_ints):
                optima[k] = (lp.OPTIMAL, brutes[k])
    rest = [c for c, known in zip(objectives, optima) if known is None]
    solved = iter(checker.maximize_projected_all(rest))
    optima = [known or next(solved) for known in optima]
    report.lp_certified = len(objectives) - len(rest)
    report.lp_exact = len(rest) if exact else 0
    for k, (c, (status, value)) in enumerate(zip(objectives, optima)):
        report.objective_total += 1
        if status != lp.OPTIMAL:
            continue
        if exact:
            brute = brutes[k]
        else:
            brute = max(sum(map(mul, c, v)) for v in V.points)
        dev = abs(value - brute)
        if dev > max_dev:
            max_dev = dev
        if (dev == 0) if exact else (dev <= tol):
            report.objective_passed += 1
    report.objective_max_deviation = max_dev
    report.lp_pivots = checker.pivots - pivots

    t_end = time.perf_counter()
    report.phases = {
        "vertex_checks_s": t_objective - t_vertex,
        "objective_checks_s": t_end - t_objective,
    }
    report.wall_time_s = t_end - t0
    return report


def check_chain_conditions(
    base_points: VertexSet,
    chain_specs: Sequence,
    target: VertexSet,
    tol: float = DEFAULT_TOL,
) -> bool:
    """The two-part certificate that a reflection chain maps the base onto
    the target hull:

    1. the base points lie in conv(target) and each chain reflection maps
       the target points back into conv(target);
    2. the canonical-preimage pass sends every target point into the base.

    ``tol`` is a comparison tolerance: it bounds the preimage steps and the
    match against a one-point base.  The hull memberships are LPs, which
    pivot at ``DEFAULT_TOL``.
    """
    for point in base_points.points:
        if not lp.in_hull(point, target):
            return False
    for spec in chain_specs:
        for w in target.points:
            if not lp.in_hull(reflect_point(spec, w), target):
                return False
    single = base_points.points[0] if len(base_points.points) == 1 else None
    for w in target.points:
        x = apply_preimage_chain(chain_specs, w, tol)
        if single is not None:
            if not vectors_eq(x, single, tol):
                return False
        elif not lp.in_hull(x, base_points):
            return False
    return True


def check_affine_generators(
    rel: PolyhedralRelation,
    maps: Sequence,
    samples: int = 20,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Spot-check that the affine ``maps`` generate the relation's fibers:
    each map's image must lie in the fiber, and random fiber optimizations
    must peak at a map's image.  The fiber over a sampled x is the body's
    rows over y with x moved into the right-hand side; each objective c is
    maximised, and minimised as minus the maximum of -c.  A reflection
    relation's pair is ``(AffineMap.identity(n), reflection_map(spec))``, a
    graph relation's is its one map.  Empty ``maps`` or a negative
    ``samples`` raises ValueError.  ``tol`` compares the images and optima;
    the fiber LPs pivot at ``DEFAULT_TOL``."""
    if not maps:
        raise ValueError("no generator maps to check")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, not {samples}")
    rng = Random(seed)
    backend, n, body = rel.backend, rel.n, rel.body

    def rand_vec(k):
        vals = [rng.randint(-10, 10) for _ in range(k)]
        return tuple(float(v) for v in vals) if backend == FLOAT else tuple(
            Fraction(v) for v in vals
        )

    for _ in range(samples):
        x = rel.preimage(rand_vec(rel.m), tol) if rel.preimage else rand_vec(n)
        if x is None:
            x = rand_vec(n)
        images = [g.apply(x) for g in maps]
        for img in images:
            if not body.contains(tuple(x) + tuple(img), tol):
                return False
        ineqs, eqs = ([(row[n:], rhs - dot(row[:n], x)) for row, rhs in zip(rows, rhss)]
                      for rows, rhss in ((body.A, body.b), (body.C, body.d)))
        for _ in range(_FIBER_OBJECTIVES):
            c = rand_vec(rel.m)
            for obj in (c, tuple(-e for e in c)):
                res = lp.solve_system(rel.m, ineqs, eqs, obj, backend=backend)
                if res.status != lp.OPTIMAL or not scalars_eq(
                        res.value, max(dot(obj, img) for img in images), tol):
                    return False
    return True
