import json
import os
import re
import subprocess
import sys

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


    @pytest.mark.parametrize("argv, flag, message", [
        (["stats", "--recipe-file", "{r}", "--n", "4"], "--n", "4 conflicts with n = 3"),
        (["build", "--recipe-file", "{r}", "--parity", "even"], "--parity", "even conflicts"),
        (["build", "--recipe-file", "{r}", "--recipe", "signing", "--base", "1,2,3"],
         "--recipe", "'signing' conflicts with the recipe 'parity'"),
        (["stats", "--ef", "{ef}", "--recipe", "mgon", "--m", "8"], "--recipe", "not allowed"),
        (["stats", "--ef", "{ef}", "--recipe-file", "{r}"], "--recipe-file", "not allowed"),
        (["export", "--ef", "{ef}", "--m", "5", "--format", "lp"], "--m", "not allowed"),
        (["verify", "--ef", "{ef}", "--oracle", "parity", "--n", "3", "--network", "batcher"],
         "--network", "not allowed"),
    ])
    def test_a_flag_the_file_contradicts_is_a_usage_error(self, tmp_path, capsys, argv, flag,
                                                          message):
        # the parity(n=3) recipe file and formulation would win over the flag, or it over them
        recipe, ef = tmp_path / "r.json", str(tmp_path / "p3.json")
        recipe.write_text(json.dumps({"recipe": "parity", "params": {"n": 3, "parity": "odd"}}))
        save_json(ef_to_dict(build_recipe("parity", {"n": 3})), ef)
        assert run([a.format(r=recipe, ef=ef) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: argument {flag}: {message}" in captured.err
        assert not os.path.exists(str(tmp_path / "p3.lp"))

    def test_a_flag_may_repeat_the_recipe_file(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"recipe": "a_permutahedron",
                                      "params": {"n": "3", "base": ["1", 2, "3"]}}))
        assert run(["stats", "--recipe-file", str(recipe)]) == 0
        alone = capsys.readouterr().out
        argv = ["stats", "--recipe-file", str(recipe), "--recipe", "a_permutahedron",
                "--n", "3", "--base", "1,2,3/1"]
        assert run(argv) == 0
        assert capsys.readouterr().out == alone and '"expected"' in alone


class TestVerify:
    def test_verify_permutahedron_passes(self, tmp_path, capsys):
        out = str(tmp_path / "perm3.json")
        assert run(["build", "--recipe", "a_permutahedron", "--n", "3",
                    "--base", "1,2,3", "--out", out]) == 0
        code = run(["verify", "--ef", out, "--oracle", "permutation",
                    "--base", "1,2,3", "--objectives", "50", "--seed", "7"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_signing_against_its_sign_flips(self, capsys):
        # the signed orbit holds permutations that no signing reaches
        assert run(["verify", "--recipe", "signing", "--n", "3", "--base", "1,2,3",
                    "--oracle", "sign_flip"]) == 0
        assert "objective optima equal   50/50" in capsys.readouterr().out
        assert run(["verify", "--recipe", "signing", "--n", "3", "--base", "1,2,3",
                    "--oracle", "signed"]) == 1

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

    def test_a_non_integer_env_seed_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REFLEKT_SEED", "abc")
        assert run(["verify", "--recipe", "a_permutahedron", "--n", "3",
                    "--base", "1,2,3", "--oracle", "permutation"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: REFLEKT_SEED must be an integer, not 'abc'\n"
        assert captured.out == ""

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

    def test_sign_flip_oracle(self, capsys):
        assert run(["oracle", "--name", "sign_flip", "--base", "1,2,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label"] == "sign_flip_orbit(1,2,3)"
        assert len(doc["points"]) == 8

    def test_completion_oracle(self, capsys):
        assert run(["oracle", "--name", "completion", "--p", "1,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, doc["points"])) == [("1", "3"), ("3", "2")]

    def test_an_oracle_flag_given_two_values_is_a_usage_error(self, capsys):
        assert run(["oracle", "--name", "mgon", "--m", "5", "--m", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --m: given twice with different values" in captured.err
        assert run(["oracle", "--name", "mgon", "--m", "5", "--m", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == "mgon_orbit(5)"

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
        # completion_time reads no --n, and an unread flag is a usage error
        recipe = ["a_permutahedron", "--n", "3"] if flag == "--base" else ["completion_time"]
        assert run(["stats", "--recipe", *recipe, flag, value]) == 3
        assert "has a zero denominator" in capsys.readouterr().err

    def test_zero_dimensional_projection_is_a_usage_error(self, capsys):
        argv = ["verify", "--recipe", "signing", "--n", "0", "--base", ",",
                "--oracle", "signed", "--objectives", "3"]
        assert run(argv) == 2
        assert "projection of dimension 0" in capsys.readouterr().err

    def test_stats_takes_no_tolerance(self):
        assert run(["stats", "--recipe", "signing", "--n", "2", "--tol", "1e-6"]) == 2


class TestUnreadFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["stats", "--recipe", "mgon", "--m", "8", "--n", "3"], "--n"),
        (["build", "--recipe", "huffman_quadratic", "--n", "4", "--network", "insertion"],
         "--network"),
        (["stats", "--recipe", "completion_time", "--p", "1,2", "--n", "2"], "--n"),
        (["oracle", "--name", "mgon", "--m", "5", "--n", "7", "--base", "1,2"], "--n"),
        (["oracle", "--name", "permutation", "--base", "1,2", "--parity", "odd"], "--parity"),
        (["verify", "--recipe", "mgon", "--m", "5", "--oracle", "mgon", "--n", "3"], "--n"),
        (["verify", "--recipe", "signing", "--n", "2", "--oracle", "signed", "--base", "1,2",
          "--network", "batcher"], "--network"),
    ])
    def test_a_flag_nothing_reads_is_a_usage_error(self, argv, flag, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and "read by" in captured.err

    def test_verify_takes_a_flag_that_only_the_oracle_reads(self, capsys):
        # mgon reads no --base, the signed oracle does: the square either way
        argv = ["verify", "--recipe", "mgon", "--m", "4", "--oracle", "signed", "--base", "1,0",
                "--tol", "1e-6"]
        assert run(argv) == 0
        assert "overall                  PASS" in capsys.readouterr().out

    def test_verify_takes_a_flag_that_only_the_recipe_reads(self, capsys):
        argv = ["verify", "--recipe", "a_permutahedron", "--n", "3", "--network", "insertion",
                "--oracle", "permutation", "--base", "1,2,3"]
        assert run(argv) == 0

    def test_with_ef_a_flag_the_oracle_does_not_read_is_a_usage_error(self, tmp_path, capsys):
        ef = str(tmp_path / "g5.json")
        save_json(ef_to_dict(build_recipe("mgon", {"m": 5})), ef)
        assert run(["verify", "--ef", ef, "--oracle", "mgon", "--m", "5", "--n", "3"]) == 2
        assert "argument --n: " in capsys.readouterr().err

    def test_a_recipe_file_key_nothing_reads_is_a_usage_error(self, tmp_path, capsys):
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"recipe": "mgon", "params": {"m": 5, "n": 3}}))
        assert run(["stats", "--recipe-file", str(recipe)]) == 2
        assert "recipe 'mgon' reads no parameter 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["stats", "--recipe", "a_permutahedron", "--n", "3", "--base", "-1,0,1"], 0),
    (["oracle", "--name", "permutation", "--base", "-1,0,1"], 0),
    (["verify", "--recipe", "mgon", "--m", "4", "--oracle", "signed", "--base", "-1,0",
      "--tol", "1e-6"], 0),
    (["stats", "--recipe", "completion_time", "--p", "-1,2"], 2),
])
def test_a_value_that_starts_negative_reads_as_its_equals_form(argv, code, capsys):
    # argparse takes "-1,0,1" for a flag; the value reaches the recipe and
    # the oracle as --base=-1,0,1 would (verify's wall time aside)
    def output(argv):
        assert run(argv) == code
        out, err = capsys.readouterr()
        return re.sub(r"wall time .*\n", "", out), err

    spaced = output(argv)
    i = next(i for i, a in enumerate(argv) if a in ("--base", "--p"))
    assert output(argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]) == spaced
    assert "expected one argument" not in spaced[1]


@pytest.mark.parametrize("flag", ["--b", "--ba", "--bas"])
@pytest.mark.parametrize("argv", [
    ["stats", "--recipe", "a_permutahedron", "--n", "3"],
    ["oracle", "--name", "permutation"],
])
def test_a_prefix_of_base_takes_a_negative_value(argv, flag, capsys):
    # argparse reads --b, --ba and --bas as --base; a value that starts
    # negative reaches the recipe and the oracle as --base=-1,0,1 would
    assert run(argv + ["--base=-1,0,1"]) == 0
    joined = capsys.readouterr()
    assert run(argv + [flag, "-1,0,1"]) == 0
    assert capsys.readouterr() == joined


def test_a_closed_stdout_exits_141_without_a_message():
    # the vertex list (about 260 kB) outgrows the pipe, so the write that
    # follows the reader's exit fails
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "reflekt.cli", "oracle", "--name", "signed",
            "--base", "1,2,3,4,5"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
