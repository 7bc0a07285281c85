import json
import os
from fractions import Fraction as F

import pytest

from reflekt import numeric
from reflekt.constructions import a_permutahedron_ef, build_recipe, mgon_ef, signing_ef
from reflekt.networks import batcher
from reflekt.oracles import mgon_orbit, permutation_orbit
from reflekt.polyhedra import (
    HPolyhedron,
    SizeLedger,
    eliminate_equations,
    point_in_projection,
    projection_checker,
)
from reflekt.serialize import (
    SCHEMA,
    atomic_write_text,
    ef_from_dict,
    ef_to_dict,
    load_json,
    save_json,
    vertexset_to_dict,
    write_lp_format,
    write_mps,
)
from reflekt.verify import verify_projection_equality


def perm3_ef():
    return a_permutahedron_ef(HPolyhedron.point((F(1), F(2), F(3))), 3, batcher(3))


class TestJsonRoundTrip:
    def test_dict_stable_under_round_trip(self):
        ef = perm3_ef()
        doc = ef_to_dict(ef)
        again = ef_to_dict(ef_from_dict(doc))
        assert doc == again
        assert doc["schema"] == SCHEMA

    def test_rationals_survive_exactly(self):
        ef = signing_ef(HPolyhedron.point((F(1, 3),)), 1)
        doc = ef_to_dict(ef)
        back = ef_from_dict(doc)
        assert back.Q.d[0] == F(1, 3)
        assert "1/3" in json.dumps(doc)

    def test_float_backend_round_trip(self):
        ef = mgon_ef(5)
        back = ef_from_dict(ef_to_dict(ef))
        assert back.backend == "float"
        assert back.Q.A == ef.Q.A

    def test_reimported_ef_verifies_identically(self):
        ef = perm3_ef()
        oracle = permutation_orbit((1, 2, 3))
        direct = verify_projection_equality(ef, oracle, 25, seed=3)
        back = ef_from_dict(ef_to_dict(ef))  # provenance is gone: pure LP path
        assert back.label == ef.label
        again = verify_projection_equality(back, oracle, 25, seed=3)
        assert direct.to_json() == again.to_json()

    def test_membership_agrees_after_reimport(self):
        ef = mgon_ef(4)
        back = ef_from_dict(ef_to_dict(ef))
        for v in mgon_orbit(4).points:
            assert point_in_projection(back, v, tol=1e-7)

    def test_schema_guard(self):
        doc = ef_to_dict(perm3_ef())
        doc["schema"] = "reflekt/999"
        with pytest.raises(ValueError):
            ef_from_dict(doc)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "ef.json")
        doc = ef_to_dict(perm3_ef())
        save_json(doc, path)
        assert load_json(path) == doc

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "payload")
        assert open(path).read() == "payload"
        assert [p for p in os.listdir(tmp_path) if p != "out.txt"] == []

    def test_vertexset_document(self):
        doc = vertexset_to_dict(permutation_orbit((1, 2)))
        assert doc["kind"] == "vertex_set"
        assert doc["points"] == [["1", "2"], ["2", "1"]]


class TestSolverFormats:
    def test_lp_format_structure(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        text = write_lp_format(ef)
        assert text.startswith("\\ reflekt/1")
        assert "Maximize" in text and "Subject To" in text and "Bounds" in text
        assert "z0_1 free" in text
        assert text.rstrip().endswith("End")
        # inequality and equation rows all present
        assert text.count(" c") >= ef.Q.n_inequalities
        assert " e1: " in text

    def test_lp_format_renders_halves(self):
        from reflekt.constructions import parity_polytope_ef

        text = write_lp_format(parity_polytope_ef(2, "odd"))
        assert "0.5" in text

    def test_mps_structure(self):
        ef = signing_ef(HPolyhedron.point((F(1), F(2))), 2)
        text = write_mps(ef)
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert " L  C1" in text
        assert " E  E1" in text
        assert " FR BND  z0_1" in text

    def test_float_rendering_is_precise(self):
        ef = mgon_ef(3)
        text = write_lp_format(ef)
        # 17 significant digits keep the irrational normals round-trippable
        import math

        assert format(-math.sin(math.pi / 3), ".17g") in text


ALL_RECIPES = [
    ("signing", {"n": 3}),
    ("mgon", {"m": 8}),
    ("i2_permutahedron", {"m": 5}),
    ("a_permutahedron", {"n": 4}),
    ("b_permutahedron", {"n": 3}),
    ("d_permutahedron", {"n": 3}),
    ("parity", {"n": 5, "parity": "odd"}),
    ("huffman_quadratic", {"n": 5}),
    ("huffman_nlogn", {"n": 5}),
    ("completion_time", {"p": [1, 2, 3]}),
]


def perm4_doc():
    return ef_to_dict(build_recipe("a_permutahedron", {"n": 4}))


class TestLedgerReadOffQ:
    @pytest.mark.parametrize("name, params", ALL_RECIPES, ids=[n for n, _ in ALL_RECIPES])
    def test_built_eliminated_and_loaded_ledgers(self, name, params):
        ef = build_recipe(name, params)
        bound = ef.reduced_variable_bound
        for version in (ef, eliminate_equations(ef), ef_from_dict(ef_to_dict(ef))):
            Q = version.Q
            assert version.ledger == SizeLedger(Q.dim, len(Q.A), len(Q.C), bound)
        assert eliminate_equations(ef).ledger.equations == 0

    def test_document_counts_are_not_read(self):
        doc = perm4_doc()
        assert len(doc["ineqs"]) == doc["ledger"]["inequalities"] == 10
        del doc["ineqs"][:2]
        doc["ledger"]["raw_variables"] = 999
        ledger = ef_from_dict(doc).ledger
        assert ledger.inequalities == 8
        assert ledger.raw_variables == doc["dim"]

    def test_bound_below_free_variables_is_rejected(self):
        doc = perm4_doc()
        n_free = projection_checker(ef_from_dict(doc)).n_free
        doc["ledger"]["reduced_variable_bound"] = n_free - 1
        with pytest.raises(ValueError, match=f"{n_free} free variables .* bound {n_free - 1}"):
            eliminate_equations(ef_from_dict(doc))

    def test_loaded_checker_pivots_at_the_default_tolerance(self, monkeypatch):
        ef = ef_from_dict(ef_to_dict(mgon_ef(8)))
        seen = []
        rref = numeric.rref
        monkeypatch.setattr(numeric, "rref", lambda M: seen.append(M) or rref(M))
        assert point_in_projection(ef, mgon_orbit(8).points[0], tol=0.06)
        assert len(seen) == 1  # the checker's one elimination


class TestDocumentChecks:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda M: [row[:-1] for row in M],
            lambda M: [M[0] + ["0"]] + M[1:],
            lambda M: [row + ["0"] for row in M],
        ],
        ids=["short", "ragged", "wide"],
    )
    def test_projection_rows_must_have_dim_entries(self, edit):
        doc = ef_to_dict(perm3_ef())
        doc["projection"]["matrix"] = edit(doc["projection"]["matrix"])
        with pytest.raises(ValueError, match="projection row width"):
            ef_from_dict(doc)

    def test_block_dims_must_be_integers_summing_to_dim(self):
        dims = ef_to_dict(perm3_ef())["block_dims"]
        assert sum(dims) == 12
        for bad in (dims[:-1], [str(k) for k in dims], [13, -1, 0, 0]):
            doc = ef_to_dict(perm3_ef())
            doc["block_dims"] = bad
            with pytest.raises(ValueError, match="block dims"):
                ef_from_dict(doc)

    @pytest.mark.parametrize("atom", [None, [1.0], {"num": 1}], ids=["null", "list", "object"])
    def test_malformed_float_atom_is_a_backend_error(self, atom):
        doc = ef_to_dict(mgon_ef(4))
        doc["ineqs"][0]["coeffs"][0] = atom
        with pytest.raises(numeric.BackendError, match="cannot coerce"):
            ef_from_dict(doc)

    @pytest.mark.parametrize(
        "edit", [float, str, lambda dim: -1, lambda dim: True],
        ids=["float", "string", "negative", "bool"],
    )
    def test_dim_must_be_a_nonnegative_integer(self, edit):
        doc = ef_to_dict(perm3_ef())
        doc["dim"] = edit(doc["dim"])
        with pytest.raises(ValueError, match="dim .* is not a nonnegative integer"):
            ef_from_dict(doc)

    @pytest.mark.parametrize("bad", ["3", 3.5, -1, None])
    def test_bound_must_be_a_nonnegative_integer(self, bad):
        doc = ef_to_dict(perm3_ef())
        doc["ledger"]["reduced_variable_bound"] = bad
        with pytest.raises(ValueError, match="reduced variable bound .* not a nonnegative"):
            ef_from_dict(doc)

    def test_unknown_backend_rejected(self):
        doc = ef_to_dict(perm3_ef())
        doc["backend"] = "Exact"
        with pytest.raises(ValueError, match="unknown backend 'Exact'"):
            ef_from_dict(doc)
