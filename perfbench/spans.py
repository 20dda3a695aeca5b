"""In-memory spans around calls into domcover's public functions.

Tracer.install() replaces each listed public function, in every loaded
domcover module that holds it, by a wrapper that records a span: name,
start, end, parent span and op id, plus a few counts read from arguments
and results.  Graph construction is traced by wrapping Graph.__init__.
Nothing inside the package changes; the spans sit at the layer boundaries.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# A span is a list [name, start, end, parent index, op id, counts or None].
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _objective(prefix):
    return lambda args, kwargs: prefix + (args[1] if len(args) > 1 else kwargs["objective"])


def _len_of(attr):
    return lambda args, result: {attr: len(getattr(result, attr))}


# (module, attribute, span name or name function, counts function or None)
TRACED = (
    ("graph", "parse_graph", "graph.parse", None),
    ("graph", "write_graph", "graph.write", None),
    ("graph", "blocks_and_cut_vertices", "graph.blocks", None),
    ("graph", "is_block_graph", "graph.is_block_graph", None),
    ("families", "generate", "families.generate", None),
    ("families", "audit_bounds", "families.audit_bounds", None),
    ("treedp", "root_tree", "treedp.root", None),
    ("treedp", "solve_tree", _objective("treedp.solve_"), _len_of("witness")),
    (
        "blockdp",
        "build_cut_tree",
        "blockdp.cut_tree",
        lambda args, r: {"blocks": len(r.blocks), "cut_vertices": len(r.cut_vertices)},
    ),
    ("blockdp", "solve_block_graph", _objective("blockdp.solve_"), None),
    ("oracle", "gamma", "oracle.gamma", None),
    ("oracle", "gamma_total", "oracle.gamma_total", None),
    ("oracle", "cover_extrema", "oracle.cover_extrema", None),
    ("oracle", "total_cover_extrema", "oracle.total_cover_extrema", None),
    ("oracle", "enumerate_gamma_sets", "oracle.enumerate", lambda args, r: {"gamma_sets": len(r)}),
    ("products", "lex_product", "products.lex_product", None),
    ("products", "gamma_lex_product", "products.closed_form", None),
    ("products", "product_cover_extrema", "products.closed_form", None),
    (
        "products",
        "validate_product_theorem",
        "products.validate",
        lambda args, r: {"mismatch": int(not r.agree)},
    ),
)


class Tracer:
    """Collects spans in memory; write() dumps them as JSON lines."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, counts=None):
        def traced(*args, **kwargs):
            span = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span[COUNTS] = counts(args, result)
            return result

        return traced

    def install(self) -> None:
        """Trace every function in TRACED, Graph construction and argument parsing."""
        import domcover.cli as cli
        import domcover.graph as graph

        loaded = [m for k, m in sys.modules.items() if k == "domcover" or k.startswith("domcover.")]
        for module, attr, name, counts in TRACED:
            original = getattr(sys.modules[f"domcover.{module}"], attr)
            wrapper = self.wrap(original, name, counts)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        graph.Graph.__init__ = self.wrap(
            graph.Graph.__init__,
            "graph.build",
            lambda args, r: {"n": args[0].n, "m": args[0].m},
        )

        build_parser = self.wrap(cli.build_parser, "cli.argparse")

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap(parser.parse_args, "cli.argparse")
            return parser

        cli.build_parser = traced_build_parser

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
