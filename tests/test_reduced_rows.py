"""The exact reduced system is written once, on integers, by
``ExtendedFormulation.parametrised``.  Verbatim copies of the Fraction
writer it replaced, of the integer scaling the checker once applied to
that writer's rows, and of the factoring that read those Fraction rows,
are kept here as the reference: the integer rows and the factored
dictionary must equal it entry for entry, and ``eliminate_equations`` must
print as its Fraction rows did."""

from fractions import Fraction as F
from math import lcm

import pytest

from reflekt import polyhedra
from reflekt.constructions import RECIPES, _box_lift_relation, build_recipe, signing_ef
from reflekt.lp import OPTIMAL, ProjectionChecker, _ExactCore, solve_system
from reflekt.numeric import EXACT, affine_solution_space, dot, int_scale, to_scalar
from reflekt.polyhedra import (
    AffineMap,
    HPolyhedron,
    compose_extension,
    eliminate_equations,
    graph_relation,
    projection_checker,
)
from reflekt.reflections import ReflectionSpec, reflection_relation
from reflekt.serialize import ef_from_dict, ef_to_dict
from reflekt.verify import actual_sizes


def reference_parametrised(self):
    """The Fraction writer, as ``ExtendedFormulation.parametrised`` was:
    ``(n, A, b, M, t, part, basis)``, or None."""
    if self.steps is None or self.backend != EXACT:
        base, steps = self.Q, (("map", self.projection),)
    else:
        base, steps = self.base, self.steps
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


def _int_row(row, rhs):
    """``(nonzeros, rhs', f)``: row and rhs times f, their least common
    denominator, with the row as sparse ``(index, int)`` pairs."""
    ints, f = int_scale(row + (rhs,))
    return [(j, c) for j, c in enumerate(ints[:-1]) if c], ints[-1], f


def reference_int_rows(n_free, A_red, b_red, M_red, t_red):
    """``(rows, by_last, blank, M)``: the rows of A_red as ``_int_row``
    scales them, and ``by_last, blank, M`` as the checker's ``_int_rows``
    grouped and scaled them."""
    A, M = ([_int_row(row, rhs) for row, rhs in zip(rows, rhss)]
            for rows, rhss in ((A_red, b_red), (M_red, t_red)))
    F = lcm(*(f for _, _, f in M))
    M = [([(j, c * (F // f)) for j, c in row], t * (F // f), F) for row, t, f in M]
    by_last, blank = [[] for _ in range(n_free)], []
    for row, rhs, _ in A:
        if row:
            by_last[row[-1][0]].append((row, rhs))
        else:
            blank.append(rhs)
    return A, by_last, blank, M


def reference_factor(n, A_red, b_red, M_red, t_red, w0):
    """The checker's ``_factor``, as it was, on the Fraction rows and a
    start w0 (a tuple of Fractions, or None)."""

    def shift(w):  # b_red - A_red w
        return tuple(rhs - dot(row, w) for row, rhs in zip(A_red, b_red))

    b = None if w0 is None else shift(w0)
    if b is None or any(v < 0 for v in b):
        zero = (F(0),) * n
        res = solve_system(n, list(zip(A_red, b_red)), (), zero)
        if res.status != OPTIMAL:
            return None
        w0 = res.point
        b = shift(w0)
    m = len(b)
    rows = [int_scale(tuple(row) + (rhs,))[0] for row, rhs in zip(A_red, b)]
    y0 = [dot(row, w0) + t for row, t in zip(M_red, t_red)]
    flat, scale = int_scale(e for row, y in zip(M_red, y0) for e in (*row, -y))
    rows += [flat[i : i + n + 1] for i in range(0, len(flat), n + 1)]
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
    lineal = [s for s, label in enumerate(core.cols) if label < n]
    slack, proj = ([row[:-1] + [-row[s] for s in lineal] + row[-1:] for row in part]
                   for part in (rows[:k], rows[m:]))
    return slack, core.basis[:k], core.cols + [-1 - t for t in lineal], proj, core.q, scale


def _simplex_signing(n, constant_row=False):
    # criterion 08's base, the simplex x >= 0, sum x = 1: its equation
    # leaves the base n - 1 free columns; sum x <= 2 becomes an all-zero row
    rows = [(tuple(-F(i == j) for j in range(n)), F(0)) for i in range(n)]
    rows += [((F(1),) * n, F(2))] if constant_row else []
    simplex = HPolyhedron.from_rows(n, rows, [((F(1),) * n, F(1))])
    return signing_ef(simplex, n)


SIZES = {
    "signing": ({"n": 2}, {"n": 4}),
    "a_permutahedron": ({"n": 3}, {"n": 6}),
    "b_permutahedron": ({"n": 2}, {"n": 4}),
    "d_permutahedron": ({"n": 3}, {"n": 4}),
    "parity": ({"n": 3, "parity": "odd"}, {"n": 6, "parity": "even"}),
    "huffman_quadratic": ({"n": 3}, {"n": 5}),
    "huffman_nlogn": ({"n": 4}, {"n": 6}),
    "completion_time": ({"p": [1, 2, 3]}, {"p": [2, "1/2", 3, "5/3"]}),
}

# one relation of each step kind over the box [-1,1]^n, with fractional data
STEPS = {
    "reflection": reflection_relation(ReflectionSpec((F(2, 3), F(-1), F(5, 2)), F(3, 4))),
    "map": graph_relation(AffineMap.from_rows([(1, F(-1, 2)), (0, 3), (F(7, 5), 2)],
                                              [1, F(-2), 0])),
    "box": _box_lift_relation(3),
}


def _formulations():
    cases = []
    for name, sizes in SIZES.items():
        for size, params in zip(("small", "large"), sizes):
            built = build_recipe(name, params)
            cases += [(f"{name}-{size}", built),
                      (f"{name}-{size}-json", ef_from_dict(ef_to_dict(built)))]
    cases += [(f"simplex-signing-{n}", _simplex_signing(n)) for n in (2, 3)]
    cases.append(("simplex-signing-constant-row", _simplex_signing(3, constant_row=True)))
    for kind, rel in STEPS.items():
        base = HPolyhedron.box([-1] * rel.n, [1] * rel.n)
        chain = [rel] * (2 if kind == "reflection" else 1)
        cases.append((f"box-{kind}", compose_extension(base, chain)))
    return cases


CASES = _formulations()


@pytest.mark.parametrize("ef", [ef for _, ef in CASES], ids=[name for name, _ in CASES])
def test_the_integer_rows_are_the_reference_rows_scaled(ef):
    assert ef.backend == EXACT
    n, A_red, b_red, M_red, t_red, part, basis = reference_parametrised(ef)
    rows, by_last, blank, M = reference_int_rows(n, A_red, b_red, M_red, t_red)
    checker = projection_checker(ef)
    assert (checker.n_free, checker.z_part, checker.N_cols) == (n, part, basis)
    new_rows, new_by_last, new_M, new_F = checker.int_rows()
    assert new_rows == rows
    assert [[(row, rhs) for row, rhs, _ in group] for group in new_by_last[:n]] == by_last
    assert [rhs for _, rhs, _ in new_by_last[n]] == blank
    assert [(row, t, new_F) for row, t in new_M] == M
    if not M:
        assert new_F == 1
    # the one Fraction view prints as the reference's Fraction rows
    red = eliminate_equations(ef)
    assert repr((red.Q.A, red.Q.b, red.projection.M, red.projection.t)) == repr(
        (A_red, b_red, M_red, t_red))


def test_the_cases_cover_every_step_kind_and_a_base_with_free_columns():
    kinds = {kind for _, ef in CASES if ef.steps for kind, _ in ef.steps}
    assert kinds == {"reflection", "map", "box"}
    assert any(ef.steps and projection_checker(ef).N_cols for _, ef in CASES)
    assert any(ef.steps is None for _, ef in CASES)
    assert any(projection_checker(ef).int_rows()[1][-1] for _, ef in CASES)  # an all-zero row


def _starts(n, A_red, b_red):
    """None, a feasible start over denominator 2 (the midpoint of two LP
    optima) and an infeasible one, which the factoring replaces."""
    rows = list(zip(A_red, b_red))
    ends = [solve_system(n, rows, (), tuple(F(s * (j + 1)) for j in range(n))).point
            for s in (1, -1)]
    mid = tuple((a + b) / 2 for a, b in zip(*ends))
    return [None, mid, tuple(e + 1000 for e in mid)]


@pytest.mark.parametrize("ef", [ef for _, ef in CASES], ids=[name for name, _ in CASES])
def test_the_factored_dictionary_is_the_reference_one(ef):
    n, A_red, b_red, M_red, t_red, _, _ = reference_parametrised(ef)
    for start in _starts(n, A_red, b_red):
        checker = ProjectionChecker(ef)
        if start is not None:
            checker.seed_from_raw(start)
        assert checker._factor() == reference_factor(n, A_red, b_red, M_red, t_red, start)


PARAMS = {"signing": {"n": 3}, "mgon": {"m": 8}, "i2_permutahedron": {"m": 5},
          "a_permutahedron": {"n": 5}, "b_permutahedron": {"n": 3},
          "d_permutahedron": {"n": 4}, "parity": {"n": 5, "parity": "odd"},
          "huffman_quadratic": {"n": 5}, "huffman_nlogn": {"n": 5},
          "completion_time": {"p": [1, 2, 3, 4]}}


@pytest.mark.parametrize("name", RECIPES)
def test_reduced_variables_are_the_reference_count(name):
    ef = build_recipe(name, PARAMS[name])
    assert actual_sizes(ef)["reduced_variables"] == reference_parametrised(ef)[0]


def test_sizes_of_a_point_base_chain_write_no_row(monkeypatch):
    calls, write = [], polyhedra._int_system
    monkeypatch.setattr(polyhedra, "_int_system", lambda *args: calls.append(args) or write(*args))
    ef = build_recipe("a_permutahedron", {"n": 8})
    sizes = actual_sizes(ef)
    assert calls == []
    assert sizes["reduced_variables"] == len(ef.relations) == projection_checker(ef).n_free
    # the first read writes the rows, once
    projection_checker(ef).int_rows()
    eliminate_equations(ef)
    assert len(calls) == 1
