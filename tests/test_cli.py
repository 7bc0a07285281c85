import json
import os
import re

import pytest

from reflekt.cli import main
from reflekt.constructions import build_recipe
from reflekt.polyhedra import HPolyhedron, compose_extension
from reflekt.serialize import ef_to_dict, load_json, save_json


def run(argv):
    return main(argv)


class TestBuild:
    def test_build_mgon_writes_json(self, tmp_path, capsys):
        out = str(tmp_path / "g8.json")
        assert run(["build", "--recipe", "mgon", "--m", "8", "--out", out]) == 0
        doc = load_json(out)
        assert doc["schema"] == "reflekt/1"
        assert len(doc["ineqs"]) == 8
        assert doc["ledger"]["inequalities"] == 8

    def test_build_to_stdout(self, capsys):
        assert run(["build", "--recipe", "parity", "--n", "3", "--parity", "odd"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ledger"]["inequalities"] == 8

    def test_recipe_file(self, tmp_path):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps({"recipe": "signing", "params": {"n": 2, "base": [1, 2]}}))
        out = str(tmp_path / "sign.json")
        assert run(["build", "--recipe-file", str(recipe), "--out", out]) == 0
        assert load_json(out)["ledger"]["inequalities"] == 4

    def test_missing_recipe_is_usage_error(self, capsys):
        assert run(["build", "--m", "8"]) == 2

    def test_missing_parameter_is_usage_error(self, capsys):
        assert run(["build", "--recipe", "mgon"]) == 2

    @pytest.mark.parametrize("command", ["build", "stats"])
    def test_backend_flag_is_a_usage_error(self, command, capsys):
        # the recipe fixes the backend; there is no flag to restate it
        assert run([command, "--recipe", "mgon", "--m", "8", "--backend", "exact"]) == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--recipe", "mgon", "--m", "5", "--oracle", "mgon", "--m", "7"], "--m"),
        (["build", "--recipe", "parity", "--n", "3", "--n", "4"], "--n"),
        (["stats", "--recipe", "mgon", "--recipe", "signing", "--m", "5"], "--recipe"),
    ])
    def test_a_recipe_flag_given_two_values_is_a_usage_error(self, argv, flag, capsys):
        # one value feeds both the recipe and the oracle: a second one would be dropped
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: given twice with different values" in captured.err
        assert "PASS" not in captured.out


class TestVerify:
    def test_verify_permutahedron_passes(self, tmp_path, capsys):
        out = str(tmp_path / "perm3.json")
        assert run(["build", "--recipe", "a_permutahedron", "--n", "3",
                    "--base", "1,2,3", "--out", out]) == 0
        code = run(["verify", "--ef", out, "--oracle", "permutation",
                    "--base", "1,2,3", "--objectives", "50", "--seed", "7"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_wrong_oracle_fails(self, tmp_path, capsys):
        out = str(tmp_path / "perm3.json")
        run(["build", "--recipe", "a_permutahedron", "--n", "3",
             "--base", "1,2,3", "--out", out])
        code = run(["verify", "--ef", out, "--oracle", "permutation",
                    "--base", "1,1,4", "--objectives", "10", "--seed", "7"])
        assert code == 1

    def test_negative_objective_count_is_a_usage_error(self, capsys):
        code = run(["verify", "--recipe", "a_permutahedron", "--n", "3", "--oracle",
                    "permutation", "--base", "1,2,3", "--objectives", "-3"])
        assert code == 2
        assert "n_objectives" in capsys.readouterr().err

    def test_roundtrip_report_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "perm3.json")
        rep_mem = str(tmp_path / "mem.json")
        rep_file = str(tmp_path / "file.json")
        run(["build", "--recipe", "a_permutahedron", "--n", "3",
             "--base", "1,2,3", "--out", out])
        # in-memory build+verify vs re-imported verify
        assert run(["verify", "--recipe", "a_permutahedron", "--n", "3",
                    "--base", "1,2,3", "--oracle", "permutation",
                    "--base", "1,2,3", "--objectives", "25", "--seed", "9",
                    "--report", rep_mem]) == 0
        assert run(["verify", "--ef", out, "--oracle", "permutation",
                    "--base", "1,2,3", "--objectives", "25", "--seed", "9",
                    "--report", rep_file]) == 0
        assert open(rep_mem, "rb").read() == open(rep_file, "rb").read()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        monkeypatch.setenv("REFLEKT_SEED", "21")
        run(["verify", "--recipe", "parity", "--n", "3", "--parity", "odd",
             "--oracle", "parity", "--objectives", "15", "--report", out_a])
        run(["verify", "--recipe", "parity", "--n", "3", "--parity", "odd",
             "--oracle", "parity", "--objectives", "15", "--report", out_b])
        a = json.load(open(out_a))
        assert a["seed"] == 21
        assert open(out_a).read() == open(out_b).read()

    def test_timing_flag_adds_path_counts(self, tmp_path):
        out = str(tmp_path / "perm3.json")
        plain, timed = str(tmp_path / "plain.json"), str(tmp_path / "timed.json")
        run(["build", "--recipe", "a_permutahedron", "--n", "3",
             "--base", "1,2,3", "--out", out])
        args = ["verify", "--ef", out, "--oracle", "permutation",
                "--base", "1,2,3", "--objectives", "10", "--seed", "7"]
        assert run(args + ["--report", plain]) == 0
        assert run(args + ["--report", timed, "--timing"]) == 0
        default = json.load(open(plain))
        assert "lp_pivots" not in default and "lp_fallbacks" not in default
        report = json.load(open(timed))
        # a formulation loaded from JSON has no provenance: every vertex
        # check takes the LP fallback
        assert report["lp_fallbacks"] == 6 and report["witness_hits"] == 0
        assert report["lp_pivots"] > 0
        # nor witnesses to prove an objective's maximum at
        assert (report["lp_certified"], report["lp_exact"]) == (0, 10)
        assert "lp_certified" not in default and "lp_exact" not in default
        assert {k: v for k, v in report.items() if k in default} == default

    def test_verify_mgon_with_tolerance(self, capsys):
        code = run(["verify", "--recipe", "mgon", "--m", "8", "--oracle", "mgon",
                    "--m", "8", "--objectives", "25", "--tol", "1e-6"])
        assert code == 0

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_or_nan_tolerance_is_a_usage_error(self, tol, capsys):
        code = run(["verify", "--recipe", "mgon", "--m", "8", "--oracle", "mgon",
                    "--objectives", "5", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert "tol must be nonnegative" in captured.err
        assert "overall" not in captured.out

    def test_infinite_tolerance_is_a_usage_error(self, tmp_path, capsys):
        # at tol=inf every float optimum would match: the 5-gon's formulation
        # against the 7-gon's vertices would score 10 of 10 objectives
        src = str(tmp_path / "g5.json")
        assert run(["build", "--recipe", "mgon", "--m", "5", "--out", src]) == 0
        capsys.readouterr()
        code = run(["verify", "--ef", src, "--oracle", "mgon", "--m", "7",
                    "--objectives", "10", "--tol", "inf"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: tol must be nonnegative and finite, not inf" in captured.err
        assert "overall" not in captured.out


class TestOracle:
    def test_permutation_oracle_stdout(self, capsys):
        assert run(["oracle", "--name", "permutation", "--base", "1,2,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "vertex_set"
        assert len(doc["points"]) == 6

    def test_huffman_oracle(self, capsys):
        assert run(["oracle", "--name", "huffman", "--n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["points"]) == 13

    def test_completion_oracle(self, capsys):
        assert run(["oracle", "--name", "completion", "--p", "1,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, doc["points"])) == [("1", "3"), ("3", "2")]

    def test_unknown_oracle(self, capsys):
        assert run(["oracle", "--name", "moonshot"]) == 2

    def test_missing_params(self, capsys):
        assert run(["oracle", "--name", "permutation"]) == 2


class TestExport:
    def test_export_lp(self, tmp_path):
        src = str(tmp_path / "g8.json")
        run(["build", "--recipe", "mgon", "--m", "8", "--out", src])
        out = str(tmp_path / "g8.lp")
        assert run(["export", "--ef", src, "--format", "lp", "--out", out]) == 0
        text = open(out).read()
        assert "Subject To" in text and "End" in text

    def test_export_mps_default_name(self, tmp_path):
        src = str(tmp_path / "g8.json")
        run(["build", "--recipe", "mgon", "--m", "8", "--out", src])
        assert run(["export", "--ef", src, "--format", "mps"]) == 0
        assert os.path.exists(str(tmp_path / "g8.mps"))

    def test_export_json_from_recipe(self, tmp_path):
        out = str(tmp_path / "par.json")
        assert run(["export", "--recipe", "parity", "--n", "4", "--parity", "even",
                    "--format", "json", "--out", out]) == 0
        assert load_json(out)["ledger"]["inequalities"] == 12


class TestStats:
    def test_stats_matches_formulas(self, capsys):
        assert run(["stats", "--recipe", "huffman_quadratic", "--n", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ledger"]["inequalities"] == doc["expected"]["inequalities"]
        assert doc["ledger"]["reduced_variables"] == doc["expected"]["reduced_variables"]

    def test_stats_from_file(self, tmp_path, capsys):
        src = str(tmp_path / "b3.json")
        run(["build", "--recipe", "b_permutahedron", "--n", "3", "--out", src])
        capsys.readouterr()
        assert run(["stats", "--ef", src]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ledger"]["inequalities"] == 12

    def test_inconsistent_equations_are_an_error(self, tmp_path, capsys):
        src = str(tmp_path / "empty.json")
        P = HPolyhedron.from_rows(1, eqs=[((1,), 0), ((1,), 1)])
        save_json(ef_to_dict(compose_extension(P, [], label="empty")), src)
        assert run(["stats", "--ef", src]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "inconsistent" in captured.err

    def test_bad_subcommand_usage(self):
        assert run(["frobnicate"]) == 2


class TestDoctoredDocuments:
    def write(self, tmp_path, doc):
        path = str(tmp_path / "doc.json")
        save_json(doc, path)
        return path

    def test_stats_counts_the_rows_of_the_file(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("a_permutahedron", {"n": 4}))
        del doc["ineqs"][:2]
        assert run(["stats", "--ef", self.write(tmp_path, doc)]) == 0
        ledger = json.loads(capsys.readouterr().out)["ledger"]
        assert ledger["inequalities"] == 8

    def test_short_block_dims_is_a_usage_error(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        doc["block_dims"] = doc["block_dims"][:-1]
        src = self.write(tmp_path, doc)
        assert run(["export", "--ef", src, "--format", "lp", "--out", src + ".lp"]) == 2
        assert "block dims" in capsys.readouterr().err
        assert not os.path.exists(src + ".lp")

    def test_short_projection_rows_are_a_usage_error(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        doc["projection"]["matrix"] = [row[:-1] for row in doc["projection"]["matrix"]]
        src = self.write(tmp_path, doc)
        assert run(["export", "--ef", src, "--format", "lp", "--out", src + ".lp"]) == 2
        assert "projection row width" in capsys.readouterr().err

    def test_unknown_backend_is_a_usage_error(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        doc["backend"] = "Exact"
        src = self.write(tmp_path, doc)
        argv = ["verify", "--ef", src, "--oracle", "permutation", "--base", "1,2,3"]
        assert run(argv) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_non_integer_sizes_are_a_usage_error(self, tmp_path, capsys):
        float_dim = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        float_dim["dim"] = float(float_dim["dim"])
        string_bound = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        string_bound["ledger"]["reduced_variable_bound"] = "3"
        for doc in (float_dim, string_bound):
            assert run(["stats", "--ef", self.write(tmp_path, doc)]) == 2
            assert "not a nonnegative integer" in capsys.readouterr().err

    def test_negative_block_dims_are_a_usage_error(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        assert doc["dim"] == 12
        doc["block_dims"] = [13, -1, 0, 0]
        src = self.write(tmp_path, doc)
        assert run(["stats", "--ef", src]) == 2
        assert run(["export", "--ef", src, "--format", "lp", "--out", src + ".lp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("not nonnegative integers") == 2
        assert not os.path.exists(src + ".lp")

    def test_zero_dimensional_document_exports_no_lp_file(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))
        doc.update(dim=0, ineqs=[], eqs=[], block_dims=[0],
                   projection={"matrix": [], "offset": []})
        doc["ledger"]["reduced_variable_bound"] = 0
        src = self.write(tmp_path, doc)
        assert run(["stats", "--ef", src]) == 0
        for fmt in ("mps", "json"):
            assert run(["export", "--ef", src, "--format", fmt, "--out", src + "." + fmt]) == 0
        capsys.readouterr()
        assert run(["export", "--ef", src, "--format", "lp", "--out", src + ".lp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ") and "dimension 0" in captured.err
        assert not os.path.exists(src + ".lp")

    @pytest.mark.parametrize("command", ["stats", "verify", "export"])
    @pytest.mark.parametrize("doctor", [
        lambda doc: [doc],
        lambda doc: {**doc, "block_dims": 4},
        lambda doc: {**doc, "ineqs": 7},
        lambda doc: {**doc, "ineqs": ["1 <= 2"] + doc["ineqs"]},
        lambda doc: {**doc, "ineqs": [{"coeffs": "1234", "rhs": 0}]},
        lambda doc: {**doc, "projection": {**doc["projection"], "matrix": 3}},
        lambda doc: {**doc, "label": 5},
        lambda doc: {**doc, "label": ["a_permutahedron(n=3)"]},
    ], ids=["list", "block_dims", "ineqs", "ineq_entry", "coeffs", "projection_matrix",
            "label_number", "label_list"])
    def test_wrong_json_type_is_a_usage_error(self, tmp_path, capsys, command, doctor):
        src = self.write(tmp_path, doctor(ef_to_dict(build_recipe("a_permutahedron", {"n": 3}))))
        argv = {"stats": ["stats", "--ef", src],
                "verify": ["verify", "--ef", src, "--oracle", "permutation", "--base", "1,2,3"],
                "export": ["export", "--ef", src, "--format", "lp", "--out", src + ".lp"]}[command]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: ")
        assert re.search(r" must be (an object|an array|a string), not ", captured.err)
        assert not os.path.exists(src + ".lp")

    @pytest.mark.parametrize("doc", [[{"recipe": "mgon", "params": {"m": 4}}],
                                     {"recipe": "mgon", "params": 4}], ids=["list", "params"])
    def test_wrong_json_type_in_a_recipe_file_is_a_usage_error(self, tmp_path, capsys, doc):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps(doc))
        assert run(["build", "--recipe-file", str(recipe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "params object" in captured.err

    def test_malformed_float_coefficient_is_a_numeric_error(self, tmp_path, capsys):
        doc = ef_to_dict(build_recipe("mgon", {"m": 4}))
        doc["ineqs"][0]["coeffs"][0] = None
        assert run(["stats", "--ef", self.write(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric error: cannot coerce NoneType to a float" in captured.err

    @pytest.mark.parametrize("bad", [float("nan"), "inf"])
    def test_non_finite_float_coefficient_is_a_numeric_error(self, tmp_path, capsys, bad):
        doc = ef_to_dict(build_recipe("mgon", {"m": 8}))
        doc["ineqs"][0]["coeffs"][0] = bad
        src = self.write(tmp_path, doc)
        assert run(["stats", "--ef", src]) == 3
        argv = ["verify", "--ef", src, "--oracle", "mgon", "--m", "8", "--objectives", "5"]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("is not a finite float") == 2

    @pytest.mark.parametrize("recipe, params", [("a_permutahedron", {"n": 3}),
                                                ("mgon", {"m": 8})])
    def test_zero_denominator_is_a_numeric_error(self, tmp_path, capsys, recipe, params):
        doc = ef_to_dict(build_recipe(recipe, params))
        doc["ineqs"][0]["coeffs"][0] = "1/0"
        assert run(["stats", "--ef", self.write(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric error: '1/0' has a zero denominator" in captured.err

    @pytest.mark.parametrize("flag, value", [("--base", "1/0,2,3"), ("--p", "1,0/0")])
    def test_zero_denominator_flag_is_a_numeric_error(self, capsys, flag, value):
        recipe = "a_permutahedron" if flag == "--base" else "completion_time"
        assert run(["stats", "--recipe", recipe, "--n", "3", flag, value]) == 3
        assert "has a zero denominator" in capsys.readouterr().err

    def test_zero_dimensional_projection_is_a_usage_error(self, capsys):
        argv = ["verify", "--recipe", "signing", "--n", "0", "--base", ",",
                "--oracle", "signed", "--objectives", "3"]
        assert run(argv) == 2
        assert "projection of dimension 0" in capsys.readouterr().err

    def test_stats_takes_no_tolerance(self):
        assert run(["stats", "--recipe", "signing", "--n", "2", "--tol", "1e-6"]) == 2
