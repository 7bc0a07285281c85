"""Certification benchmark for reflekt.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload orbit --seed 7 --seconds 40 --trace 0

One process, no threads.  The run imports ``reflekt`` from ``src/`` next to
this directory and repeats *rounds* of the workload for ``--seconds``.  An
untraced round first sets up ``SETUPS_PER_ROUND`` times (a fresh import,
every recipe build and oracle enumeration), so set-up samples are spread
over the whole run.  A round then builds every formulation afresh, certifies
each one with ``verify_projection_equality`` and asks ``reflekt stats``
(through ``cli.main``) for each size ledger.  Every report is checked: at the digest
seed its ``to_json()`` must hash to the recorded digest, at other seeds it
must pass (exactly, with zero deviation, on the rational backend); every
ledger must equal ``constructions.expected_ledger``.

Times are rescaled to a host of fixed speed: every timed block (a call, or
consecutive calls of at least ``BLOCK_S`` seconds) is bracketed by
``reference_work()``, a fixed exact-rational loop, and its wall time is
multiplied by ``REFERENCE_S`` over the mean of the two reference times around
it.  On a shared host the same loop can run twice as fast in one window of a
few seconds as in another, and such phases last minutes; the rescaled times
follow the program, not the phase.  Raw wall times are printed as well.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` alternates untraced rounds with traced ones, in which the
public functions of each layer are wrapped from outside (see ``SPANS``),
and reports per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGEST_SEED = 7
DIGESTS = HERE / "digests.json"
SETUPS_PER_ROUND = 4
MIN_ROUNDS = 2
# Seconds that reference_work() takes on the host the times are rescaled to.
REFERENCE_S = 0.03
# Calls are rescaled in blocks of at least this many seconds, so that short
# calls (the m-gons) do not each pay for a reference loop.
BLOCK_S = 0.25


@dataclass(frozen=True)
class Certify:
    """One ``verify_projection_equality`` call: recipe, oracle, objectives."""

    recipe: str
    params: tuple
    oracle: str
    oracle_args: tuple
    objectives: int = 50
    tol: float = 1e-9
    from_json: bool = False

    @property
    def key(self) -> str:
        key = self.recipe + " " + " ".join(f"{k}={v}" for k, v in self.params)
        return key + " from json" if self.from_json else key


@dataclass(frozen=True)
class Stats:
    """One ``reflekt stats --recipe <recipe> --n <n>`` call."""

    recipe: str
    n: int

    @property
    def argv(self) -> list:
        return ["stats", "--recipe", self.recipe, "--n", str(self.n)]


@dataclass(frozen=True)
class Workload:
    certify: tuple
    stats: tuple


def _perm(n, from_json=False):
    return Certify(
        "a_permutahedron", (("n", n),), "permutation_orbit", (tuple(range(1, n + 1)),),
        from_json=from_json,
    )


def _signed(n):
    return Certify("b_permutahedron", (("n", n),), "signed_orbit", (tuple(range(1, n + 1)),))


def _huffman(recipe, n):
    return Certify(recipe, (("n", n),), "huffman_vectors", (n,))


def _parity(n):
    return Certify("parity", (("n", n), ("parity", "odd")), "parity_vertices", (n, "odd"))


def _mgon(m):
    return Certify("mgon", (("m", m),), "mgon_orbit", (m,), objectives=25, tol=1e-6)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "orbit": Workload(
        certify=(_perm(6), _signed(4)),
        stats=(Stats("a_permutahedron", 6), Stats("b_permutahedron", 4)),
    ),
    "chain": Workload(
        certify=(_huffman("huffman_quadratic", 5), _huffman("huffman_nlogn", 5), _parity(7)),
        stats=(Stats("huffman_quadratic", 5), Stats("huffman_nlogn", 5), Stats("parity", 7)),
    ),
    "ledger": Workload(
        certify=tuple(_mgon(m) for m in range(3, 65)) + (_perm(5, from_json=True),),
        stats=(Stats("a_permutahedron", 8),),
    ),
}

END_TO_END = {
    "certify_s": "s",
    "stats_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "constructions.build_s": "s",
    "oracles.enumerate_s": "s",
    "oracles.vertices": "count",
    "numeric.rref_calls": "count",
    "numeric.rref_s": "s",
    "polyhedra.checker_s": "s",
    "polyhedra.witness_s": "s",
    "reflections.preimage_calls": "count",
    "reflections.preimage_s": "s",
    "polyhedra.contains_calls": "count",
    "polyhedra.contains_s": "s",
    "lp.fallback_calls": "count",
    "polyhedra.witness_hit_ratio": "ratio",
    "lp.seed_s": "s",
    "lp.objective_s": "s",
    "lp.solve_calls": "count",
    "lp.solve_s": "s",
    "verify.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# (module, attribute owner inside it, attribute, span name).  The owner is
# None for module-level functions.  Functions imported by name into another
# module are wrapped where they are looked up at call time.
SPANS = (
    ("constructions", None, "build_recipe", "constructions.build"),
    ("verify", None, "verify_projection_equality", "verify.certify"),
    ("verify", None, "projection_checker", "polyhedra.checker"),
    ("verify", None, "_witness_blocks", "polyhedra.witness"),
    ("polyhedra", "HPolyhedron", "contains", "polyhedra.contains"),
    ("reflections", None, "canonical_preimage", "reflections.preimage"),
    ("numeric", None, "rref", "numeric.rref"),
    ("lp", "ProjectionChecker", "feasible", "lp.fallback"),
    ("lp", "ProjectionChecker", "seed_from_raw", "lp.seed"),
    ("lp", "ProjectionChecker", "maximize_projected", "lp.objective"),
    ("lp", None, "solve_system", "lp.solve"),
)


class TraceError(RuntimeError):
    """Raised when span accounting is inconsistent."""


class Tracer:
    """Aggregated spans keyed by (root span, span name).

    A span's self time is its duration minus the durations of the spans it
    directly encloses, so each nested span is subtracted exactly once.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)

    def reset(self):
        if self._stack:
            raise TraceError("reset inside an open span")
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()

    @contextlib.contextmanager
    def span(self, name):
        root = self._stack[0][0] if self._stack else name
        frame = [root, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += duration
            own = duration - frame[1]
            if own < 0:
                raise TraceError(f"negative self time {own!r} in span {name}")
            key = (root, name)
            self.calls[key] += 1
            self.total[key] += duration
            self.self_time[key] += own

    def wrap(self, name, fn, skip=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def sum(self, table, name):
        return sum(v for (_, n), v in table.items() if n == name)


def _first_checker_call(ef, *args, **kwargs):
    """Skip predicate: only the call that builds an ef's checker is a span."""
    return ef._checker is not None


@contextlib.contextmanager
def installed(pkg, tracer, oracle_names):
    """Wrap every layer entry point named in SPANS; restore them on exit."""
    saved = []
    try:
        for module, owner, attr, name in SPANS:
            target = getattr(pkg, module)
            if owner is not None:
                target = getattr(target, owner)
            fn = getattr(target, attr)
            skip = _first_checker_call if name == "polyhedra.checker" else None
            saved.append((target, attr, fn))
            setattr(target, attr, tracer.wrap(name, fn, skip))
        for attr in oracle_names:
            fn = getattr(pkg.oracles, attr)
            saved.append((pkg.oracles, attr, fn))
            setattr(pkg.oracles, attr, tracer.wrap("oracles.enumerate", fn))
        yield
    finally:
        for target, attr, fn in reversed(saved):
            setattr(target, attr, fn)


def load_reflekt():
    """(Re-)import reflekt from src/, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "reflekt" or m.startswith("reflekt.")]:
        del sys.modules[name]
    pkg = importlib.import_module("reflekt")
    importlib.import_module("reflekt.cli")
    importlib.import_module("reflekt.serialize")
    return pkg


def build_inputs(pkg, workload):
    """Build every formulation and enumerate its oracle.  A ``from_json``
    formulation goes through a JSON round trip, as ``reflekt verify --ef``
    loads it; it keeps no construction provenance, so certifying it takes
    the LP fallback for every vertex."""
    out = []
    for job in workload.certify:
        ef = pkg.constructions.build_recipe(job.recipe, dict(job.params))
        if job.from_json:
            text = json.dumps(pkg.serialize.ef_to_dict(ef))
            ef = pkg.serialize.ef_from_dict(json.loads(text))
        vertices = getattr(pkg.oracles, job.oracle)(*job.oracle_args)
        out.append((job, ef, vertices))
    return out


def set_up(workload):
    """One set-up: a fresh import, every recipe build and oracle
    enumeration.  Returns (package, inputs, seconds)."""
    gc.collect()
    start = time.perf_counter()
    pkg = load_reflekt()
    inputs = build_inputs(pkg, workload)
    return pkg, inputs, time.perf_counter() - start


def reference_work():
    """Time a fixed loop of Fraction arithmetic, the kind of work reflekt's
    exact kernels do; returns its wall time."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return time.perf_counter() - start


class Rescaler:
    """Rescales the wall time of consecutive blocks to REFERENCE_S speed.

    A reference time is taken at creation and after every block; a block's
    wall time is scaled by REFERENCE_S over the mean of the reference times
    just before and just after it.
    """

    def __init__(self, reference=reference_work):
        self.reference = reference
        self.last = reference()
        self.references = [self.last]
        self.block = 0.0

    def __call__(self, wall):
        now = self.reference()
        self.references.append(now)
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return wall * factor

    def add(self, wall, last):
        """Add one call's wall time to the open block.  The block is closed
        once it holds BLOCK_S seconds or ``last`` is true; returns its
        rescaled time then, and 0.0 while it stays open."""
        self.block += wall
        if self.block < BLOCK_S and not last:
            return 0.0
        wall, self.block = self.block, 0.0
        return self(wall)


class Tally:
    """Checks attempted and failed across a run."""

    def __init__(self, digests, seed):
        self.digests = digests
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _count(self, attempted, failed, problem):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(problem)

    def report(self, job, report):
        self._count(
            report.vertex_total,
            report.vertex_total - report.vertex_passed,
            f"{job.key}: {report.vertex_passed}/{report.vertex_total} vertices",
        )
        self._count(
            report.objective_total,
            report.objective_total - report.objective_passed,
            f"{job.key}: {report.objective_passed}/{report.objective_total} objectives",
        )
        want = self.digests.get(job.key) if self.seed == DIGEST_SEED else None
        if want is not None:
            got = hashlib.sha256(report.to_json().encode()).hexdigest()
            self._count(1, int(got != want), f"{job.key}: report digest {got}")
        else:
            exact = report.backend == "exact"
            ok = report.passed and (report.objective_max_deviation == 0 or not exact)
            self._count(1, int(not ok), f"{job.key}: report not passed exactly")

    def ledger(self, job, code, text, expected):
        try:
            ledger = json.loads(text)["ledger"] if code == 0 else {}
        except (ValueError, KeyError):
            ledger = {}
        for key, want in sorted(expected.items()):
            got = ledger.get(key)
            self._count(1, int(got != want), f"stats {job.recipe} n={job.n}: {key} {got} != {want}")


def run_round(pkg, workload, seed, tally, rescale, tracer=None):
    """Certify and size every formulation once, after a collection.

    Returns (certify_s, stats_s, wall, layers): the rescaled times, the
    raw wall times as a pair, and the per-layer metrics of a traced round
    (None otherwise), whose times are rescaled by the whole round's factor.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    inputs = build_inputs(pkg, workload)
    rescale(0.0)  # a reference time right before the first certify call
    certify_s = certify_wall = 0.0
    for i, (job, ef, vertices) in enumerate(inputs):
        start = time.perf_counter()
        report = pkg.verify.verify_projection_equality(
            ef, vertices, n_objectives=job.objectives, seed=seed, tol=job.tol
        )
        elapsed = time.perf_counter() - start
        certify_wall += elapsed
        certify_s += rescale.add(elapsed, last=i == len(inputs) - 1)
        tally.report(job, report)
    stats_s = stats_wall = 0.0
    for i, job in enumerate(workload.stats):
        buf = io.StringIO()
        start = time.perf_counter()
        with span("cli.stats"), contextlib.redirect_stdout(buf):
            code = pkg.cli.main(job.argv)
        elapsed = time.perf_counter() - start
        stats_wall += elapsed
        stats_s += rescale.add(elapsed, last=i == len(workload.stats) - 1)
        expected = pkg.constructions.expected_ledger(job.recipe, {"n": job.n})
        tally.ledger(job, code, buf.getvalue(), expected)
    wall = (certify_wall, stats_wall)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer, (certify_s + stats_s) / sum(wall))
    return certify_s, stats_s, wall, layers


def layer_metrics(tracer, factor):
    """Per-layer metrics of one traced round; times are multiplied by
    ``factor``."""
    total = lambda name: factor * tracer.sum(tracer.total, name)
    own = lambda name: factor * tracer.sum(tracer.self_time, name)
    calls = lambda name: tracer.sum(tracer.calls, name)
    vertex_checks = calls("polyhedra.witness")
    fallbacks = calls("lp.fallback")
    return {
        "constructions.build_s": total("constructions.build"),
        "oracles.enumerate_s": total("oracles.enumerate"),
        "numeric.rref_calls": calls("numeric.rref"),
        "numeric.rref_s": total("numeric.rref"),
        "polyhedra.checker_s": total("polyhedra.checker"),
        "polyhedra.witness_s": own("polyhedra.witness"),
        "reflections.preimage_calls": calls("reflections.preimage"),
        "reflections.preimage_s": total("reflections.preimage"),
        "polyhedra.contains_calls": calls("polyhedra.contains"),
        "polyhedra.contains_s": total("polyhedra.contains"),
        "lp.fallback_calls": fallbacks,
        "polyhedra.witness_hit_ratio": (vertex_checks - fallbacks) / vertex_checks,
        "lp.seed_s": total("lp.seed"),
        "lp.objective_s": total("lp.objective"),
        "lp.solve_calls": calls("lp.solve"),
        "lp.solve_s": total("lp.solve"),
        "verify.self_s": own("verify.certify"),
        "shares": {
            root: {
                name: round(own / tracer.total[(root, root)], 4)
                for (r, name), own in sorted(tracer.self_time.items())
                if r == root
            }
            for root in {r for r, _ in tracer.total}
        },
    }


def repeat(seconds, min_calls, call):
    """Call ``call`` at least ``min_calls`` times, and again while the
    longest call so far would still end within ``seconds`` of the start."""
    out = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while len(out) < min_calls or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        out.append(call())
        longest = max(longest, time.perf_counter() - start)
    return out


def run(workload, seed, seconds, trace, digests):
    """Run one workload; returns (tally, metrics, summary lines).

    Untraced: at least MIN_ROUNDS rounds, each after SETUPS_PER_ROUND
    set-ups.  Traced: pairs of one untraced and one traced round, so the
    overhead ratio compares neighbours.
    """
    tally = Tally(digests, seed)
    median = statistics.median
    rescale = Rescaler()
    if not trace:
        setup_samples = []
        setup_wall = []

        def set_up_then_round():
            for _ in range(SETUPS_PER_ROUND):
                pkg, _, setup_s = set_up(workload)
                setup_wall.append(setup_s)
                setup_samples.append(rescale(setup_s))
            return run_round(pkg, workload, seed, tally, rescale)

        rounds = repeat(seconds, MIN_ROUNDS, set_up_then_round)
        metrics = {
            "certify_s": median([r[0] for r in rounds]),
            "stats_s": median([r[1] for r in rounds]),
            "setup_s": median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines = [
            f"{len(rounds)} rounds, {len(setup_samples)} set-ups",
            "certify_s per round: " + " ".join(f"{r[0]:.4f}" for r in rounds),
            "stats_s per round: " + " ".join(f"{r[1]:.4f}" for r in rounds),
            "median wall times: certify {:.4f} s, stats {:.4f} s, setup {:.4f} s".format(
                median([r[2][0] for r in rounds]), median([r[2][1] for r in rounds]),
                median(setup_wall),
            ),
        ]
        units = END_TO_END
    else:
        pkg, inputs, _ = set_up(workload)
        vertices = sum(len(v) for _, _, v in inputs)
        tracer = Tracer()
        oracle_names = sorted({job.oracle for job in workload.certify})

        def pair():
            untraced = run_round(pkg, workload, seed, tally, rescale)
            with installed(pkg, tracer, oracle_names):
                return untraced, run_round(pkg, workload, seed, tally, rescale, tracer)

        untraced, traced = zip(*repeat(seconds, 1, pair))
        metrics = {name: median([r[3][name] for r in traced]) for name in traced[0][3]
                   if name in PER_LAYER}
        metrics["oracles.vertices"] = vertices
        metrics["trace.overhead_ratio"] = (
            median([r[0] for r in traced]) / median([r[0] for r in untraced])
        )
        lines = [
            f"{len(traced)} pairs of untraced and traced rounds",
            "self-time shares of each root span, last traced round:",
            json.dumps(traced[-1][3]["shares"], sort_keys=True),
        ]
        units = PER_LAYER
    lines.append(
        f"reference_work: median {median(rescale.references):.4f} s wall over "
        f"{len(rescale.references)} samples; times rescaled to {REFERENCE_S} s"
    )
    return tally, {k: {"value": metrics[k], "unit": units[k]} for k in units}, lines


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="reflekt certification benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True, help="objective seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "reflekt" / "__init__.py").is_file():
        print(f"error: no reflekt sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    digests = json.loads(DIGESTS.read_text())
    tally, metrics, lines = run(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace), digests
    )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    ratio = tally.failed / tally.attempted
    print(f"  {'failed_ratio':30s} {ratio:.6g} ratio ({tally.failed}/{tally.attempted} checks)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
