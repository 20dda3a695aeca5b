"""The benchmark's three workloads: how each builds its inputs from a seed,
which CLI ops one pass runs, and how each answer is checked.

build() runs in the set-up child process, where domcover is imported; it
generates the instances and writes any edge-list files.  Everything else
runs in the benchmark process.  Checks compare against reference.py, never
against domcover's own solvers.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def load_domcover():
    """Import domcover from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "domcover" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no domcover package under {src}")
    sys.path.insert(0, str(src))
    import domcover

    if Path(domcover.__file__).resolve().parent != src / "domcover":
        raise SystemExit(f"perfbench: imported domcover from {domcover.__file__}, not {src}")


def _spec_argv(family: str, params: dict, seed, suffix: str = "") -> list[str]:
    argv = [f"--family{suffix}", family, f"--params{suffix}"]
    argv += [f"{k}={v}" for k, v in params.items()]
    if seed is not None:
        argv += [f"--seed{suffix}", str(seed)]
    return argv


def _generate(family: str, params: dict, seed):
    from domcover.families import FamilySpec, generate

    g = generate(FamilySpec(family, dict(params), seed))
    return g.n, [list(e) for e in g.edges()]


class Checker:
    """Checks one workload's answers; check() returns None or the reason."""

    def check(self, index: int, doc: dict) -> str | None:
        raise NotImplementedError

    def check_pass(self, passed: set[int]) -> dict[int, str]:
        """Cross-op checks over the ops of one pass that passed check():
        {op index: reason} for failures."""
        return {}


# ---------------------------------------------------------------------------
# dp-large: a million-vertex tree and a 2*10**5-vertex block graph, each
# solved for min and max cover from an edge-list file


class LargeGraphs:
    name = "dp-large"
    setup_rounds = 3
    # (subcommand, family, n)
    PARTS = (("tree", "random_tree", 10**6), ("block", "random_block_graph", 2 * 10**5))
    OBJECTIVES = ("min", "max")

    def build(self, seed: int, workdir: Path) -> dict:
        from domcover.families import FamilySpec, generate
        from domcover.graph import write_graph

        files = {}
        for command, family, n in self.PARTS:
            # The warm-up graph on 63 vertices is a path for tree and a chain
            # of 31 triangles for block.  It is written here, not generated,
            # so the set-up spans time the large instances only.
            chain = [(i, i + 1) for i in range(62)]
            if command == "block":
                chain += [(2 * i, 2 * i + 2) for i in range(31)]
            texts = {
                "input": write_graph(generate(FamilySpec(family, {"n": n}, seed))),
                "small": f"63 {len(chain)}\n" + "".join(f"{u} {v}\n" for u, v in chain),
            }
            for label, text in texts.items():
                path = workdir / f"{self.name}-{command}-{label}.txt"
                path.write_text(text, encoding="utf-8")
                files[f"{command}-{label}"] = os.path.relpath(path, ROOT)
        return files

    def _argvs(self, info: dict, label: str) -> list[list[str]]:
        return [
            [command, "--input", info[f"{command}-{label}"], "--objective", obj, "--json", "--witness"]
            for command, _, _ in self.PARTS
            for obj in self.OBJECTIVES
        ]

    def ops(self, info: dict) -> list[list[str]]:
        return self._argvs(info, "input")

    def warmup(self, info: dict) -> list[list[str]]:
        return self._argvs(info, "small")

    def checker(self, info: dict) -> Checker:
        return LargeGraphChecker([
            (command, reference.EdgeArrays(ROOT / info[f"{command}-input"]))
            for command, _, _ in self.PARTS
        ])


class LargeGraphChecker(Checker):
    """Op 2i is min and op 2i+1 is max on graph i."""

    def __init__(self, graphs: list[tuple[str, reference.EdgeArrays]]):
        self.graphs = graphs
        self.answers: dict[int, tuple[int, int]] = {}  # op index -> (size, cover)

    def check(self, index, doc):
        command, graph = self.graphs[index // 2]
        res = doc["results"]
        if doc["command"] != command or res["objective"] != LargeGraphs.OBJECTIVES[index % 2]:
            return "answer is for another command or objective"
        self.answers[index] = (res["size"], res["cover"])
        return graph.check_witness(res["witness"], res["size"], res["cover"])

    def check_pass(self, passed):
        errors = {}
        for lo, hi in ((2 * i, 2 * i + 1) for i in range(len(self.graphs))):
            if not {lo, hi} <= passed:
                continue
            (lo_size, lo_cover), (hi_size, hi_cover) = self.answers[lo], self.answers[hi]
            if lo_size != hi_size:
                errors[lo] = errors[hi] = "min and max sizes differ"
            elif lo_cover > hi_cover:
                errors[lo] = errors[hi] = "min cover exceeds max cover"
        return errors


# ---------------------------------------------------------------------------
# oracle-sparse: exhaustive search on connected sparse graphs, n <= 26

KINDS = {
    "gamma": ["--json"],
    "cover": ["--json", "--witness"],
    "total": ["--json", "--witness"],
    "enum": ["--json"],
    "bounds": ["--json"],
}

# Seed-independent instances.  Four searches of about 0.2 s sit well above
# every other op, so from three passes on op_tail_s, ten samples from the
# top, falls inside that group (in its upper half for the usual six to eight
# passes): it depends neither on the seed nor on a few noisy samples.  The
# bounds and total instances on 20 vertices take under 0.1 s, like the
# slowest seeded ops.
FIXED = (
    ("cycle", {"n": 24}, "cover"),
    ("path", {"n": 24}, "cover"),
    ("cycle", {"n": 24}, "enum"),
    ("path", {"n": 24}, "enum"),
    ("cycle", {"n": 20}, "bounds"),
    ("path", {"n": 20}, "bounds"),
    ("cycle", {"n": 20}, "total"),
    ("path", {"n": 20}, "total"),
    ("cycle", {"n": 26}, "gamma"),
    ("path", {"n": 26}, "gamma"),
    ("corona", {"p": 13}, "gamma"),
)

# Seeded instances: (family, params, instances per op kind).  Small block
# graphs and sparse random graphs search for a few milliseconds each, so
# the median op falls among many ops of similar cost whatever the seed; the
# two trees per kind sit well above the median.
RANDOM = (
    ("random_block_graph", {"n": 18}, 24),
    ("random_gnp", {"n": 18, "num": 1, "den": 5}, 24),
    ("random_tree", {"n": 18}, 1),
    ("random_tree", {"n": 20}, 1),
)


def _report_key(kind: str, n: int, edges) -> str:
    return ("total:" if kind == "total" else "plain:") + reference.graph_key(n, edges)


def fixed_reports() -> dict:
    """Reference reports for the seed-independent instances (slow to compute)."""
    out = {}
    for family, params, kind in FIXED:
        n, edges = _generate(family, params, None)
        key = _report_key(kind, n, edges)
        if key not in out:
            out[key] = reference.minimum_sets_report(n, edges, total=kind == "total")
    return out


class OracleSparse:
    name = "oracle-sparse"
    setup_rounds = 7

    def build(self, seed: int, workdir: Path) -> list[dict]:
        rng = random.Random(f"{self.name}/{seed}")
        slots = [(f, p, None, k, *_generate(f, p, None)) for f, p, k in FIXED]
        for kind in KINDS:
            for family, params, count in RANDOM:
                for _ in range(count):
                    while True:
                        s = rng.randrange(1 << 30)
                        n, edges = _generate(family, params, s)
                        if reference.is_connected(n, edges):
                            break
                    slots.append((family, params, s, kind, n, edges))
        rng.shuffle(slots)
        keys = ("family", "params", "seed", "kind", "n", "edges")
        return [dict(zip(keys, slot)) for slot in slots]

    def ops(self, info):
        return [
            [i["kind"], *_spec_argv(i["family"], i["params"], i["seed"]), *KINDS[i["kind"]]]
            for i in info
        ]

    def warmup(self, info):
        return [[kind, "--family", "path", "--params", "n=8", *flags] for kind, flags in KINDS.items()]

    def checker(self, info):
        return OracleChecker(info)


class OracleChecker(Checker):
    def __init__(self, info):
        cached = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        self.info = info
        self.expected = []
        for inst in info:
            key = _report_key(inst["kind"], inst["n"], inst["edges"])
            if key not in cached:
                cached[key] = reference.minimum_sets_report(
                    inst["n"], inst["edges"], total=inst["kind"] == "total"
                )
            self.expected.append(cached[key])

    def check(self, index, doc):
        inst, ref = self.info[index], self.expected[index]
        want_input = {"family": inst["family"], "params": inst["params"], "seed": inst["seed"]}
        if doc["command"] != inst["kind"] or doc["input"] != want_input:
            return "answer is for another command or input"
        res = doc["results"]
        kind = inst["kind"]
        if kind == "gamma":
            ok = res == {"gamma": ref["size"]}
        elif kind in ("cover", "total"):
            fields = ("size", "cover_min", "cover_max", "witness_min", "witness_max")
            ok = res == {"mode": "total" if kind == "total" else "plain",
                         **{f: ref[f] for f in fields}}
        elif kind == "enum":
            ok = (res["gamma"] == ref["size"] and res["count"] == ref["count"]
                  and reference.sets_digest(res["gamma_sets"]) == ref["sets_sha256"])
        else:
            return _check_audit(res, inst["n"], ref)
        return None if ok else f"{kind} answer differs from the reference"


def _check_audit(res, n, ref) -> str | None:
    want = {"n": n, "gamma": ref["size"], "cover_min": ref["cover_min"],
            "cover_max": ref["cover_max"], "gamma_set_count": ref["count"],
            "unique_gamma_set": ref["count"] == 1}
    if any(res[k] != v for k, v in want.items()):
        return "bounds answer differs from the reference"
    half = (n + 1) // 2
    known = {
        "cover_floor_order_minus_gamma": (n - ref["size"], ref["cover_min"]),
        "cover_at_least_half_order": (half, ref["cover_min"]),
        "cover_at_most_half_order_squared": (ref["cover_max"], half * half),
    }
    if not known.keys() <= {c["name"] for c in res["checks"]}:
        return "bounds answer lacks a check"
    for c in res["checks"]:
        if c["name"] in known and (c["lhs"], c["rhs"]) != known[c["name"]]:
            return f"bound check {c['name']} has the wrong sides"
        if c["applicable"] and (c["holds"] != (c["lhs"] <= c["rhs"])
                                or c["tight"] != (c["lhs"] == c["rhs"])):
            return f"bound check {c['name']} is inconsistent"
    return None


# ---------------------------------------------------------------------------
# product-grid: every small factor pair, each validated against the oracle

G_FACTORS = (
    [("path", {"n": k}) for k in range(2, 7)]
    + [("cycle", {"n": k}) for k in range(3, 7)]
    + [("star", {"leaves": k}) for k in range(1, 6)]
    + [("complete", {"n": k}) for k in range(2, 7)]
    + [("corona", {"p": 2}), ("corona", {"p": 3}), ("barbell", {"n": 3})]
    + [("book", {"m": 1}), ("book", {"m": 2})]
)
H_FACTORS = (
    [("path", {"n": k}) for k in range(1, 6)]
    + [("cycle", {"n": k}) for k in range(3, 6)]
    + [("star", {"leaves": k}) for k in range(1, 5)]
    + [("complete", {"n": k}) for k in range(1, 6)]
    + [("corona", {"p": 2}), ("book", {"m": 1})]
)
PRODUCT_CAP = 20


class ProductGrid:
    name = "product-grid"
    setup_rounds = 7

    def build(self, seed: int, workdir: Path) -> list[dict]:
        g_graphs = [(f, p, *_generate(f, p, None)) for f, p in G_FACTORS]
        h_graphs = [(f, p, *_generate(f, p, None)) for f, p in H_FACTORS]
        pairs = [
            {"G": [gf, gp, gn, ge], "H": [hf, hp, hn, he]}
            for gf, gp, gn, ge in g_graphs
            for hf, hp, hn, he in h_graphs
            if gn * hn <= PRODUCT_CAP
        ]
        random.Random(f"{self.name}/{seed}").shuffle(pairs)
        return pairs

    def ops(self, info):
        return [
            ["validate-product", *_spec_argv(p["G"][0], p["G"][1], None, "G"),
             *_spec_argv(p["H"][0], p["H"][1], None, "H"), "--json"]
            for p in info
        ]

    def warmup(self, info):
        return [["validate-product", *_spec_argv("path", {"n": 2}, None, "G"),
                 *_spec_argv("path", {"n": 2}, None, "H"), "--json"]]

    def checker(self, info):
        return ProductChecker(info)


class ProductChecker(Checker):
    def __init__(self, info):
        self.expected = []
        self.inputs = []
        for p in info:
            (gf, gp, gn, ge), (hf, hp, hn, he) = p["G"], p["H"]
            self.inputs.append({"G": {"family": gf, "params": gp, "seed": None},
                                "H": {"family": hf, "params": hp, "seed": None}})
            ref = reference.minimum_sets_report(gn * hn, reference.lex_product_edges(gn, ge, hn, he))
            self.expected.append((ref["size"], ref["cover_min"], ref["cover_max"]))
        self.mismatches = 0

    def check(self, index, doc):
        res = doc["results"]
        if doc["command"] != "validate-product" or doc["input"] != self.inputs[index]:
            return "answer is for another command or input"
        if (res["gamma_oracle"], res["min_oracle"], res["max_oracle"]) != self.expected[index]:
            return "oracle side of the validation differs from the reference"
        flags = [res[f"{k}_formula"] == res[f"{k}_oracle"] for k in ("gamma", "min", "max")]
        if flags != [res["gamma_agree"], res["min_agree"], res["max_agree"]]:
            return "agreement flags contradict the values"
        if res["agree"] != all(flags):
            return "overall agreement contradicts the per-value flags"
        # A closed form that disagrees with the oracle is a finding, not a failure.
        self.mismatches += not res["agree"]
        return None


WORKLOADS = {
    w.name: w
    for w in (
        LargeGraphs(),
        OracleSparse(),
        ProductGrid(),
    )
}
