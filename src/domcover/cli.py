"""Command-line surface: one subcommand per operation group.

Every run emits a single document on stdout: either sorted "key: value"
lines, or with --json one JSON object {command, input, results} with sorted
keys.  Identical inputs and seeds give byte-identical stdout; wall time goes
to stderr so it never perturbs the structured output.

Exit codes: 0 success, 2 domain or precondition error, 3 capacity error,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from itertools import islice

from . import oracle
from .blockdp import solve_block_graph
from .errors import CapacityError, DomainError
from .families import FamilySpec, audit_bounds, generate
from .graph import Graph, parse_graph, write_graph
from .products import product_cover_extrema, validate_product_theorem
from .treedp import root_tree, solve_tree

_USAGE_EXIT = 64
_DOMAIN_EXIT = 2
_CAPACITY_EXIT = 3
_JSON = json.JSONEncoder(sort_keys=True, indent=2)
_BATCH = 4096  # JSON chunks or list entries joined per write


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the usage exit instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _add_input_flags(sub: argparse.ArgumentParser, suffix: str = "") -> None:
    tag = f" for graph {suffix}" if suffix else ""
    sub.add_argument(f"--input{suffix}", metavar="FILE", help=f"edge-list file{tag}")
    sub.add_argument(f"--family{suffix}", metavar="NAME", help=f"generator family{tag}")
    sub.add_argument(
        f"--params{suffix}",
        metavar="K=V",
        nargs="*",
        action="extend",
        default=[],
        help=f"integer parameters{tag}",
    )
    sub.add_argument(f"--seed{suffix}", metavar="N", type=int, help=f"random seed{tag}")


def build_parser() -> _Parser:
    parser = _Parser(prog="domcover", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    single = {
        "gamma": "domination number",
        "cover": "cover extrema over minimum dominating sets",
        "total": "cover extrema over minimum total dominating sets",
        "tree": "tree solver (one objective)",
        "block": "block-graph solver (one objective)",
        "bounds": "audit the cover brackets",
        "gen": "emit the graph as edge-list text",
        "enum": "list every minimum dominating set",
    }
    for name, help_text in single.items():
        sub = subs.add_parser(name, help=help_text)
        _add_input_flags(sub)
        if name in ("tree", "block"):
            sub.add_argument("--objective", choices=("min", "max"), default="min")
        sub.add_argument("--json", action="store_true", help="emit one JSON document")
        sub.add_argument("--witness", action="store_true", help="include witness sets")

    for name, help_text in (
        ("product", "cover extremum of a lexicographic product, by projection onto G"),
        ("validate-product", "compare the projection form against the exhaustive oracle"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_input_flags(sub, "G")
        _add_input_flags(sub, "H")
        if name == "product":
            sub.add_argument("--objective", choices=("min", "max"), default="min")
        sub.add_argument("--json", action="store_true", help="emit one JSON document")
        sub.add_argument("--witness", action="store_true", help="include witness sets")
    return parser


def _parse_params(pairs: list[str], flag: str) -> dict[str, int]:
    params: dict[str, int] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise _UsageError(f"{flag} entries look like K=V, got {pair!r}")
        if key in params:
            raise _UsageError(f"{flag} gives {key!r} more than once")
        try:
            params[key] = int(value)
        except ValueError:
            raise _UsageError(f"{flag} values must be integers, got {pair!r}") from None
    return params


def _load_graph(args: argparse.Namespace, suffix: str = "") -> tuple[Graph, dict]:
    path = getattr(args, f"input{suffix}")
    family = getattr(args, f"family{suffix}")
    seed = getattr(args, f"seed{suffix}")
    params = _parse_params(getattr(args, f"params{suffix}"), f"--params{suffix}")
    if (path is None) == (family is None):
        raise _UsageError(f"exactly one of --input{suffix}/--family{suffix} is required")
    if path is not None:
        # a family's flags would be silently ignored
        for flag, given in (("params", params), ("seed", seed is not None)):
            if given:
                raise _UsageError(f"--{flag}{suffix} does not apply to --input{suffix}")
        # parse_graph reads the file in pieces, so a read error or bad UTF-8
        # can surface anywhere in it
        try:
            with open(path, encoding="utf-8") as fh:
                return parse_graph(fh), {"path": path}
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read {path}: {exc}") from None
    spec = FamilySpec(family, params, seed)
    return generate(spec), {"family": family, "params": params, "seed": seed}


def _witness_filter(result, include: bool) -> dict:
    # shallow: asdict would deep-copy every member of a witness tuple
    return {
        f.name: getattr(result, f.name)
        for f in fields(result)
        if include or not f.name.startswith("witness")
    }


def _run_command(args: argparse.Namespace) -> tuple[dict, dict]:
    """Returns (input descriptor, results)."""
    cmd = args.command
    if cmd in ("product", "validate-product"):
        g, desc_g = _load_graph(args, "G")
        h, desc_h = _load_graph(args, "H")
        desc = {"G": desc_g, "H": desc_h}
        if cmd == "product":
            return desc, asdict(product_cover_extrema(g, h, args.objective))
        record = validate_product_theorem(g, h)
        res = asdict(record)
        res["agree"] = record.agree
        return desc, res

    g, desc = _load_graph(args)
    if cmd == "gamma":
        return desc, {"gamma": oracle.gamma(g)}
    if cmd == "cover":
        return desc, _witness_filter(oracle.cover_extrema(g), args.witness)
    if cmd == "total":
        return desc, _witness_filter(oracle.total_cover_extrema(g), args.witness)
    if cmd == "tree":
        sol = solve_tree(root_tree(g, 0), args.objective)
        return desc, _witness_filter(sol, args.witness)
    if cmd == "block":
        sol = solve_block_graph(g, args.objective)
        return desc, _witness_filter(sol, args.witness)
    if cmd == "bounds":
        return desc, asdict(audit_bounds(g))
    if cmd == "enum":
        sets = oracle.enumerate_gamma_sets(g)
        gamma = len(sets[0]) if sets else 0
        return desc, {"gamma": gamma, "count": len(sets), "gamma_sets": list(sets)}
    # gen
    return desc, {"edge_list": write_graph(g)}


def _flatten(obj, prefix: str, write) -> None:
    """Write obj as sorted "key: value" lines; a list of scalars is one line
    of its entries, written _BATCH entries at a time, so a witness of a
    million ids is never held as one string."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}.", write)
    elif isinstance(obj, (list, tuple)):
        if all(isinstance(x, (int, bool)) or x is None for x in obj):
            entries = map(_scalar, obj)
            write(f"{prefix[:-1]}: {' '.join(islice(entries, _BATCH))}")
            while batch := " ".join(islice(entries, _BATCH)):
                write(f" {batch}")
            write("\n")
        else:
            for i, item in enumerate(obj):
                _flatten(item, f"{prefix}{i}.", write)
    else:
        write(f"{prefix[:-1]}: {_scalar(obj)}\n")


def _scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        desc, results = _run_command(args)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
    except _UsageError as exc:
        print(str(exc).rstrip(), file=sys.stderr)
        return _USAGE_EXIT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return _CAPACITY_EXIT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    if args.json:
        doc = {"command": args.command, "input": desc, "results": results}
        # print(json.dumps(doc, sort_keys=True, indent=2)) in pieces: with an
        # indent, dumps lists one string per witness entry and then joins
        # them, so it would hold the document twice over
        chunks = _JSON.iterencode(doc)
        while batch := "".join(islice(chunks, _BATCH)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    elif args.command == "gen":
        sys.stdout.write(results["edge_list"])
    else:
        _flatten(results, "", sys.stdout.write)
    print(f"elapsed_ms: {elapsed_ms}", file=sys.stderr)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
