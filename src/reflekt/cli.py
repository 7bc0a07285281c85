"""Command-line front end: build recipes, verify against oracles, dump
oracle vertex sets, export formulations, and report sizes.

Exit codes: 0 success / verification pass, 1 verification failure, 2 usage
error, 3 numeric or backend error (a malformed scalar in a document
included), 141 standard output closed before all output was written
(128 + SIGPIPE, what a shell reports for a tool that SIGPIPE ended).  The
recipe fixes the backend; no flag restates it.  The random seed comes from
--seed, the REFLEKT_SEED environment variable (a usage error unless it is
an integer), or defaults to 0.  A
parameter flag that neither the recipe nor the oracle of the command reads
is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import constructions, oracles, serialize
from .lp import LPNumericError
from .numeric import DEFAULT_TOL, EXACT, BackendError, to_scalar
from .verify import actual_sizes, verify_projection_equality

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141


class UsageError(ValueError):
    pass


def _parse_number_list(text: str):
    return [to_scalar(part.strip(), EXACT) for part in text.split(",") if part.strip()]


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("REFLEKT_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"REFLEKT_SEED must be an integer, not {env!r}") from None


_PARAM_FLAGS = ("m", "n", "parity", "base", "p", "network")


def _repeats(flag, filed) -> bool:
    """Whether a parameter flag's value is the recipe file's value again,
    numbers compared as numbers: ``3``, ``"3"`` and ``[3]`` are one value."""
    def numbers(v):
        return _parse_number_list(",".join(map(str, v)) if isinstance(v, list) else str(v))
    try:
        return flag == filed or numbers(flag) == numbers(filed)
    except (ValueError, BackendError):
        return False


def _recipe(args) -> tuple:
    """``(name, params)`` of the recipe that --recipe-file and the recipe
    flags give together, or ``(None, None)`` with --ef.  A flag may repeat
    what the file says; another recipe name or parameter value is a usage
    error that names the flag, not a value silently dropped.  ``params``
    holds only what the recipe reads
    (:data:`~reflekt.constructions.RECIPE_KEYS`); :func:`_check_flags`
    rejects a flag that nothing reads."""
    if getattr(args, "ef", None):
        return None, None
    name, params = args.recipe, {}
    if args.recipe_file:
        doc = serialize.load_json(args.recipe_file)
        if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
            raise UsageError(f"{args.recipe_file}: need a JSON object with a params object")
        params.update(doc.get("params", {}))
        filed = doc.get("recipe")
        if name and filed and filed != name:
            raise UsageError(f"argument --recipe: {name!r} conflicts with the recipe "
                             f"{filed!r} of {args.recipe_file}")
        name = name or filed
    if not name:
        raise UsageError("a recipe name is required (--recipe or --recipe-file)")
    keys = constructions.RECIPE_KEYS.get(name, _PARAM_FLAGS)  # an unknown name fails later
    for dest in _PARAM_FLAGS:
        value = getattr(args, dest)
        if value in (None, ""):
            continue
        if dest in params and not _repeats(value, params[dest]):
            raise UsageError(f"argument --{dest}: {value} conflicts with {dest} = "
                             f"{params[dest]!r} in {args.recipe_file}")
        if dest in keys:
            params[dest] = _parse_number_list(value) if dest in ("base", "p") else value
    return name, params


def _formulation(args):
    """``(ef, name, params)``: the formulation of --ef, with no recipe, or
    the one built from the :func:`_recipe` of the flags, once
    :func:`_check_flags` has passed them."""
    name, params = _recipe(args)
    _check_flags(args, name)
    if name is None:
        return serialize.ef_from_dict(serialize.load_json(args.ef)), None, None
    try:
        return constructions.build_recipe(name, params), name, params
    except KeyError as exc:
        raise UsageError(f"recipe {name!r} is missing parameter {exc}") from exc


# Each oracle's enumerator and the parameter flags it reads; the first is
# required, and a missing --parity is odd.
ORACLES = {
    "permutation": (oracles.permutation_orbit, ("base",)),
    "signed": (oracles.signed_orbit, ("base",)),
    "even_signed": (oracles.even_signed_orbit, ("base",)),
    "mgon": (oracles.mgon_orbit, ("m",)),
    "huffman": (oracles.huffman_vectors, ("n",)),
    "parity": (oracles.parity_vertices, ("n", "parity")),
    "completion": (oracles.completion_time_vertices, ("p",)),
    "sign_flip": (oracles.sign_flip_orbit, ("base",)),
}


def _check_flags(args, recipe=None) -> None:
    """The one check of a command's parameter flags: a flag that neither
    its recipe (None with --ef or without one) nor its oracle reads is a
    usage error that names the flag; with --ef, so is any recipe flag.  An
    unknown or missing name reads every flag and fails on its own later."""
    has_oracle = hasattr(args, "oracle")
    keys = set(constructions.RECIPE_KEYS.get(recipe, _PARAM_FLAGS) if recipe else ())
    if has_oracle:
        keys.update(ORACLES.get(args.oracle, (None, _PARAM_FLAGS))[1])
    with_ef = getattr(args, "ef", None)
    for dest in ("recipe", "recipe_file", *_PARAM_FLAGS) if with_ef else _PARAM_FLAGS:
        if getattr(args, dest, None) in (None, "") or dest in keys:
            continue
        if with_ef:
            unread = "not allowed with --ef"
        elif recipe is None:
            unread = f"not read by the {args.oracle} oracle"
        elif has_oracle:
            unread = f"read by neither recipe {recipe!r} nor the oracle"
        else:
            unread = f"not read by recipe {recipe!r}"
        raise UsageError(f"argument --{dest.replace('_', '-')}: {unread}")


def _oracle_from_args(args):
    """The vertex set of the oracle that the flags name."""
    name = args.oracle
    if not name:
        raise UsageError("an oracle name is required")
    if name not in ORACLES:
        raise UsageError(f"unknown oracle {name!r}")
    enumerator, keys = ORACLES[name]
    values = [getattr(args, key) for key in keys]
    if values[0] in (None, ""):
        raise UsageError(f"--{keys[0]} is required for the {name} oracle")
    if keys[0] in ("base", "p"):
        values[0] = _parse_number_list(values[0])
    if name == "parity":
        values[1] = values[1] or "odd"
    return enumerator(*values)


class _Once(argparse.Action):
    """Store a flag's value.  Giving the flag again with another value is a
    usage error, not a value silently dropped (the recipe and the oracle of
    ``verify`` read the same one); repeating the same value is fine."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) not in (None, values):
            raise argparse.ArgumentError(self, "given twice with different values")
        setattr(namespace, self.dest, values)


def _add_param_flags(parser):
    parser.add_argument("--m", type=int, action=_Once, help="m-gon parameter")
    parser.add_argument("--n", type=int, action=_Once, help="dimension / leaf count")
    parser.add_argument("--parity", choices=["odd", "even"], action=_Once)
    parser.add_argument("--base", action=_Once, help="comma-separated base point")
    parser.add_argument("--p", action=_Once, help="comma-separated processing times")


def _add_recipe_flags(parser):
    parser.add_argument("--recipe", action=_Once, help="construction name")
    parser.add_argument("--recipe-file", action=_Once, help="JSON recipe document")
    _add_param_flags(parser)
    parser.add_argument("--network", choices=["batcher", "insertion"], action=_Once)


def cmd_build(args) -> int:
    ef = _formulation(args)[0]
    doc = serialize.ef_to_dict(ef)
    if args.out:
        serialize.save_json(doc, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    ef = _formulation(args)[0]
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
    _check_flags(args)
    vs = _oracle_from_args(args)
    doc = serialize.vertexset_to_dict(vs)
    if args.out:
        serialize.save_json(doc, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_export(args) -> int:
    ef, name, _ = _formulation(args)
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
        stem = os.path.splitext(args.ef)[0] if args.ef else name
        out = stem + default_ext
    serialize.atomic_write_text(out, text)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    ef, name, params = _formulation(args)
    payload = {"label": ef.label, "ledger": actual_sizes(ef)}
    if name:
        try:
            payload["expected"] = constructions.expected_ledger(name, params)
        except (ValueError, KeyError):
            pass
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _joined_negatives(argv) -> list:
    """argv with each --base or --p value that starts with a negative
    number joined to its flag, ``--base -1,0,1`` as ``--base=-1,0,1``:
    argparse takes such a value for a flag unless it is one number."""
    flags = ("--b", "--ba", "--bas", "--base", "--p")  # argparse reads --b.. as --base
    out = []
    for arg in argv:
        if out and out[-1] in flags and re.match(r"-[0-9.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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
    p_oracle.add_argument("--name", dest="oracle", metavar="NAME", required=True, action=_Once)
    _add_param_flags(p_oracle)
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
        args = parser.parse_args(_joined_negatives(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (say, `| head -1`): no message, and no second
        # error when Python flushes stdout at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
