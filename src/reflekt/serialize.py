"""Versioned JSON import/export plus LP-format and MPS writers.

JSON keeps the exact source of truth: rational coefficients serialize as
strings and round-trip losslessly.  LP/MPS files exist for interop with
external solvers and render every coefficient as a float with 17
significant digits.  All writers go through an atomic temp-file + rename.
"""

from __future__ import annotations

import json
import os
import tempfile

from .numeric import EXACT, FLOAT, scalar_to_json, to_scalar
from .polyhedra import AffineMap, ExtendedFormulation, HPolyhedron

SCHEMA = "reflekt/1"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".reflekt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def ef_to_dict(ef: ExtendedFormulation) -> dict:
    Q = ef.Q
    return {
        "schema": SCHEMA,
        "kind": "extended_formulation",
        "label": ef.label,
        "backend": ef.backend,
        "dim": Q.dim,
        "ineqs": [
            {"coeffs": [scalar_to_json(c) for c in row], "rhs": scalar_to_json(rhs)}
            for row, rhs in zip(Q.A, Q.b)
        ],
        "eqs": [
            {"coeffs": [scalar_to_json(c) for c in row], "rhs": scalar_to_json(rhs)}
            for row, rhs in zip(Q.C, Q.d)
        ],
        "projection": {
            "matrix": [[scalar_to_json(c) for c in row] for row in ef.projection.M],
            "offset": [scalar_to_json(c) for c in ef.projection.t],
        },
        "ledger": ef.ledger.to_dict(),
        "block_dims": list(ef.block_dims) if ef.block_dims is not None else None,
    }


def _typed(value, kind, what):
    """value, or ValueError when it is not a JSON object (``kind`` dict) or
    array (``kind`` list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ValueError(f"{what} must be {name}, not {type(value).__name__}")
    return value


def ef_from_dict(data: dict) -> ExtendedFormulation:
    """The formulation a document describes.  Its size counts are read off
    Q; of the document's ledger only ``reduced_variable_bound`` is read.
    Every coefficient enters the document's backend through
    :func:`~reflekt.numeric.to_scalar`, so a malformed atom (a float in an
    exact document, ``None`` or a list in either) raises
    :class:`~reflekt.numeric.BackendError`; a field of the wrong JSON type
    (a list for the document, a number for ``ineqs``) raises ValueError."""
    if _typed(data, dict, "the document").get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {data.get('schema')!r}, need {SCHEMA}")
    if data.get("kind") != "extended_formulation":
        raise ValueError("not an extended-formulation document")
    backend = data["backend"]
    if backend not in (EXACT, FLOAT):
        raise ValueError(f"unknown backend {backend!r}, need {EXACT!r} or {FLOAT!r}")
    dim = data["dim"]

    def row(entry):
        entry = _typed(entry, dict, "a row")
        return (
            tuple(to_scalar(c, backend) for c in _typed(entry["coeffs"], list, "coeffs")),
            to_scalar(entry["rhs"], backend),
        )

    ineqs = [row(e) for e in _typed(data["ineqs"], list, "ineqs")]
    eqs = [row(e) for e in _typed(data["eqs"], list, "eqs")]
    Q = HPolyhedron(
        dim,
        tuple(r for r, _ in ineqs),
        tuple(v for _, v in ineqs),
        tuple(r for r, _ in eqs),
        tuple(v for _, v in eqs),
        backend,
    )
    proj = _typed(data["projection"], dict, "projection")
    projection = AffineMap(
        tuple(tuple(to_scalar(c, backend) for c in _typed(r, list, "a projection row"))
              for r in _typed(proj["matrix"], list, "projection.matrix")),
        tuple(to_scalar(c, backend) for c in _typed(proj["offset"], list, "projection.offset")),
        backend,
    )
    block_dims = data.get("block_dims")
    return ExtendedFormulation(
        Q,
        projection,
        _typed(data["ledger"], dict, "ledger")["reduced_variable_bound"],
        block_dims=None if block_dims is None else tuple(_typed(block_dims, list, "block_dims")),
        label=data.get("label", ""),
    )


def save_json(data: dict, path: str) -> None:
    atomic_write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def vertexset_to_dict(V) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "vertex_set",
        "label": V.label,
        "backend": V.backend,
        "dim": V.dim,
        "points": [[scalar_to_json(c) for c in p] for p in V.points],
    }


def _num(x) -> str:
    return format(float(x), ".17g")


def _lp_expr(coeffs, names) -> str:
    terms = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        val = float(c)
        if not terms:
            terms.append(f"{_num(val)} {name}")
        elif val < 0:
            terms.append(f"- {_num(-val)} {name}")
        else:
            terms.append(f"+ {_num(val)} {name}")
    if not terms:
        return f"0 {names[0]}"
    return " ".join(terms)


def write_lp_format(ef: ExtendedFormulation) -> str:
    """CPLEX-style LP file with a zero objective; every variable is free.
    The objective names a variable, so a 0-dimensional Q raises ValueError."""
    names = ef.var_names()
    if not names:
        raise ValueError("an LP file needs a variable; this formulation has dimension 0")
    Q = ef.Q
    lines = [f"\\ {SCHEMA} formulation: {ef.label or 'unnamed'}", "Maximize", f" obj: 0 {names[0]}", "Subject To"]
    for i, (row, rhs) in enumerate(zip(Q.A, Q.b), start=1):
        lines.append(f" c{i}: {_lp_expr(row, names)} <= {_num(rhs)}")
    for i, (row, rhs) in enumerate(zip(Q.C, Q.d), start=1):
        lines.append(f" e{i}: {_lp_expr(row, names)} = {_num(rhs)}")
    lines.append("Bounds")
    for name in names:
        lines.append(f" {name} free")
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_mps(ef: ExtendedFormulation) -> str:
    """Free-format MPS with FR bounds for every variable."""
    names = ef.var_names()
    Q = ef.Q
    lines = [f"NAME          {ef.label or 'reflekt'}", "ROWS", " N  OBJ"]
    row_names = []
    for i in range(len(Q.A)):
        row_names.append(f"C{i + 1}")
        lines.append(f" L  C{i + 1}")
    eq_names = []
    for i in range(len(Q.C)):
        eq_names.append(f"E{i + 1}")
        lines.append(f" E  E{i + 1}")
    lines.append("COLUMNS")
    first = True
    for j, name in enumerate(names):
        entries = []
        if first:
            entries.append(("OBJ", 0.0))
            first = False
        for rname, row in zip(row_names, Q.A):
            if row[j] != 0:
                entries.append((rname, row[j]))
        for rname, row in zip(eq_names, Q.C):
            if row[j] != 0:
                entries.append((rname, row[j]))
        for rname, val in entries:
            lines.append(f"    {name}  {rname}  {_num(val)}")
    lines.append("RHS")
    for rname, rhs in zip(row_names, Q.b):
        if rhs != 0:
            lines.append(f"    RHS  {rname}  {_num(rhs)}")
    for rname, rhs in zip(eq_names, Q.d):
        if rhs != 0:
            lines.append(f"    RHS  {rname}  {_num(rhs)}")
    lines.append("BOUNDS")
    for name in names:
        lines.append(f" FR BND  {name}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
