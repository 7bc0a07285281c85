"""Command-line front end: build recipes, verify against oracles, dump
oracle vertex sets, export formulations, and report sizes.

Exit codes: 0 success / verification pass, 1 verification failure, 2 usage
error, 3 numeric or backend error (a malformed scalar in a document
included).  The recipe fixes the backend; no flag restates it.  The random
seed comes from --seed, the REFLEKT_SEED environment variable, or defaults
to 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions, oracles, serialize
from .lp import LPNumericError
from .numeric import DEFAULT_TOL, EXACT, BackendError, to_scalar
from .verify import actual_sizes, verify_projection_equality

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


def _parse_number_list(text: str):
    return [to_scalar(part.strip(), EXACT) for part in text.split(",") if part.strip()]


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("REFLEKT_SEED")
    return int(env) if env else 0


def _recipe_params(args) -> dict:
    params = {}
    if getattr(args, "recipe_file", None):
        doc = serialize.load_json(args.recipe_file)
        if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
            raise UsageError(f"{args.recipe_file}: need a JSON object with a params object")
        params.update(doc.get("params", {}))
        if not getattr(args, "recipe", None):
            args.recipe = doc.get("recipe")
    if getattr(args, "m", None) is not None:
        params["m"] = args.m
    if getattr(args, "n", None) is not None:
        params["n"] = args.n
    if getattr(args, "parity", None):
        params["parity"] = args.parity
    if getattr(args, "base", None):
        params["base"] = _parse_number_list(args.base)
    if getattr(args, "p", None):
        params["p"] = _parse_number_list(args.p)
    if getattr(args, "network", None):
        params["network"] = args.network
    return params


def _build_from_args(args):
    params = _recipe_params(args)  # may fill args.recipe from --recipe-file
    if not getattr(args, "recipe", None):
        raise UsageError("a recipe name is required (--recipe or --recipe-file)")
    try:
        return constructions.build_recipe(args.recipe, params)
    except KeyError as exc:
        raise UsageError(f"recipe {args.recipe!r} is missing parameter {exc}") from exc


def _load_or_build_ef(args):
    if getattr(args, "ef", None):
        return serialize.ef_from_dict(serialize.load_json(args.ef))
    return _build_from_args(args)


def _oracle_from_args(args):
    name = args.oracle if hasattr(args, "oracle") else args.name
    if not name:
        raise UsageError("an oracle name is required")
    if name == "permutation":
        if not args.base:
            raise UsageError("--base is required for the permutation oracle")
        return oracles.permutation_orbit(_parse_number_list(args.base))
    if name == "signed":
        if not args.base:
            raise UsageError("--base is required for the signed oracle")
        return oracles.signed_orbit(_parse_number_list(args.base))
    if name == "even_signed":
        if not args.base:
            raise UsageError("--base is required for the even_signed oracle")
        return oracles.even_signed_orbit(_parse_number_list(args.base))
    if name == "mgon":
        if args.m is None:
            raise UsageError("--m is required for the mgon oracle")
        return oracles.mgon_orbit(args.m)
    if name == "huffman":
        if args.n is None:
            raise UsageError("--n is required for the huffman oracle")
        return oracles.huffman_vectors(args.n)
    if name == "parity":
        if args.n is None:
            raise UsageError("--n is required for the parity oracle")
        return oracles.parity_vertices(args.n, args.parity or "odd")
    if name == "completion":
        if not args.p:
            raise UsageError("--p is required for the completion oracle")
        return oracles.completion_time_vertices(_parse_number_list(args.p))
    raise UsageError(f"unknown oracle {name!r}")


class _Once(argparse.Action):
    """Store a flag's value.  The recipe and the oracle of ``verify`` read
    the same value, so giving the flag again with another value is a usage
    error, not a value silently dropped; repeating the same value is fine."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) not in (None, values):
            raise argparse.ArgumentError(self, "given twice with different values")
        setattr(namespace, self.dest, values)


def _add_recipe_flags(parser):
    parser.add_argument("--recipe", action=_Once, help="construction name")
    parser.add_argument("--recipe-file", action=_Once, help="JSON recipe document")
    parser.add_argument("--m", type=int, action=_Once, help="m-gon parameter")
    parser.add_argument("--n", type=int, action=_Once, help="dimension / leaf count")
    parser.add_argument("--parity", choices=["odd", "even"], action=_Once)
    parser.add_argument("--base", action=_Once, help="comma-separated base point")
    parser.add_argument("--p", action=_Once, help="comma-separated processing times")
    parser.add_argument("--network", choices=["batcher", "insertion"], action=_Once)


def cmd_build(args) -> int:
    ef = _build_from_args(args)
    doc = serialize.ef_to_dict(ef)
    if args.out:
        serialize.save_json(doc, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    ef = _load_or_build_ef(args)
    oracle = _oracle_from_args(args)
    report = verify_projection_equality(
        ef,
        oracle,
        n_objectives=args.objectives,
        seed=_seed_from(args),
        tol=args.tol,
    )
    print(report.to_text())
    if args.report:
        serialize.atomic_write_text(args.report, report.to_json(args.timing) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_oracle(args) -> int:
    vs = _oracle_from_args(args)
    doc = serialize.vertexset_to_dict(vs)
    if args.out:
        serialize.save_json(doc, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_export(args) -> int:
    ef = _load_or_build_ef(args)
    if args.format == "json":
        text = json.dumps(serialize.ef_to_dict(ef), sort_keys=True, indent=2) + "\n"
        default_ext = ".json"
    elif args.format == "lp":
        text = serialize.write_lp_format(ef)
        default_ext = ".lp"
    elif args.format == "mps":
        text = serialize.write_mps(ef)
        default_ext = ".mps"
    else:
        raise UsageError(f"unknown export format {args.format!r}")
    out = args.out
    if not out:
        stem = os.path.splitext(args.ef)[0] if args.ef else (args.recipe or "formulation")
        out = stem + default_ext
    serialize.atomic_write_text(out, text)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    ef = _load_or_build_ef(args)
    payload = {"label": ef.label, "ledger": actual_sizes(ef)}
    if getattr(args, "recipe", None):
        try:
            payload["expected"] = constructions.expected_ledger(
                args.recipe, _recipe_params(args)
            )
        except (ValueError, KeyError):
            pass
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflekt",
        description="build, verify, and export extended formulations of "
        "reflection-orbit polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a recipe and write its JSON")
    _add_recipe_flags(p_build)
    p_build.add_argument("--out", help="output path (stdout when omitted)")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="verify a formulation against an oracle")
    _add_recipe_flags(p_verify)
    p_verify.add_argument("--ef", help="formulation JSON to verify")
    p_verify.add_argument("--oracle", help="oracle name")
    p_verify.add_argument("--objectives", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--report", help="write the JSON report here")
    p_verify.add_argument("--timing", action="store_true",
                          help="add wall time, path counts and LP pivots to --report")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="print an oracle vertex set as JSON")
    p_oracle.add_argument("--name", required=True)
    p_oracle.add_argument("--base")
    p_oracle.add_argument("--m", type=int)
    p_oracle.add_argument("--n", type=int)
    p_oracle.add_argument("--parity", choices=["odd", "even"])
    p_oracle.add_argument("--p")
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(func=cmd_oracle)

    p_export = sub.add_parser("export", help="export a formulation to lp/mps/json")
    _add_recipe_flags(p_export)
    p_export.add_argument("--ef", help="formulation JSON to export")
    p_export.add_argument("--format", required=True, choices=["lp", "mps", "json"])
    p_export.add_argument("--out")
    p_export.set_defaults(func=cmd_export)

    p_stats = sub.add_parser("stats", help="print a formulation's size ledger")
    _add_recipe_flags(p_stats)
    p_stats.add_argument("--ef")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BackendError, LPNumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
