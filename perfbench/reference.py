"""Reference answers for the benchmark's correctness checks.

This module imports nothing from domcover, so a defect in the package's
solvers cannot hide itself here.  Graphs arrive as a vertex count and a list
of (u, v) edges.  The minimum-set search is a naive combination scan: every
k-subset is visited in lexicographic order for k = 1, 2, ... until one
covers all vertices, so the first set met with a given cover is also the
lexicographically first, which is the tie-break the package documents.
"""

from __future__ import annotations

import hashlib
import json
from array import array


def closed_masks(n: int, edges) -> list[int]:
    """Per-vertex bitmask of N[v]."""
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def open_masks(n: int, edges) -> list[int]:
    """Per-vertex bitmask of N(v)."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def covering_sets(masks: list[int], k: int) -> list[tuple[int, ...]]:
    """Every k-subset whose masks union to all vertices, in lexicographic order.

    Visits all C(n, k) subsets; only the prefix unions are shared.
    """
    n = len(masks)
    full = (1 << n) - 1
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def scan(start: int, depth: int, acc: int) -> None:
        if depth == k:
            if acc == full:
                found.append(tuple(chosen))
            return
        for i in range(start, n - (k - depth) + 1):
            chosen.append(i)
            scan(i + 1, depth + 1, acc | masks[i])
            chosen.pop()

    scan(0, 0, 0)
    return found


def sets_digest(sets) -> str:
    """Stable digest of a list of vertex sets, as the CLI prints them in JSON."""
    text = json.dumps([list(s) for s in sets], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def minimum_sets_report(n: int, edges, total: bool = False) -> dict:
    """Size, count, cover extrema and lexicographically first witnesses over
    all minimum dominating sets (total dominating sets when total is set)."""
    masks = open_masks(n, edges) if total else closed_masks(n, edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for k in range(1, n + 1):
        sets = covering_sets(masks, k)
        if sets:
            break
    else:
        raise ValueError("no dominating set: total domination needs no isolated vertex")
    covers = [sum(deg[v] for v in s) for s in sets]
    lo = min(range(len(sets)), key=lambda i: (covers[i], i))
    hi = min(range(len(sets)), key=lambda i: (-covers[i], i))
    return {
        "size": k,
        "count": len(sets),
        "cover_min": covers[lo],
        "cover_max": covers[hi],
        "witness_min": list(sets[lo]),
        "witness_max": list(sets[hi]),
        "sets_sha256": sets_digest(sets),
    }


def graph_key(n: int, edges) -> str:
    """Digest of a graph's normalised edge list, used to key cached reports."""
    norm = sorted((u, v) if u < v else (v, u) for u, v in edges)
    text = f"{n};" + ";".join(f"{u},{v}" for u, v in norm)
    return hashlib.sha256(text.encode()).hexdigest()


def is_connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if not seen[u]:
                seen[u] = 1
                stack.append(u)
    return 0 not in seen


def lex_product_edges(gn: int, g_edges, hn: int, h_edges) -> list[tuple[int, int]]:
    """Edges of G o H with (g, h) flattened to g * hn + h."""
    edges = [
        (a * hn + x, b * hn + y) for a, b in g_edges for x in range(hn) for y in range(hn)
    ]
    edges.extend((a * hn + x, a * hn + y) for a in range(gn) for x, y in h_edges)
    return edges


class EdgeArrays:
    """A large graph held as two int arrays, read from edge-list text.

    Enough to check a claimed dominating set and its degree sum without
    building adjacency lists.
    """

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            n, m = map(int, fh.readline().split())
            us = array("i")
            vs = array("i")
            for line in fh:
                a, b = line.split()
                us.append(int(a))
                vs.append(int(b))
        if len(us) != m:
            raise ValueError(f"{path}: header says {m} edges, found {len(us)}")
        deg = array("i", [0]) * n
        for a in us:
            deg[a] += 1
        for b in vs:
            deg[b] += 1
        self.n, self.us, self.vs, self.deg = n, us, vs, deg

    def check_witness(self, witness: list[int], size: int, cover: int) -> str | None:
        """None when the witness is a dominating set of the stated size and
        cover, else the reason it is not."""
        n = self.n
        if len(witness) != size:
            return f"witness has {len(witness)} vertices, reported size {size}"
        if any(b <= a for a, b in zip(witness, witness[1:])):
            return "witness is not strictly increasing"
        if witness and not (0 <= witness[0] and witness[-1] < n):
            return "witness vertex out of range"
        if sum(self.deg[v] for v in witness) != cover:
            return "witness degree sum differs from the reported cover"
        member = bytearray(n)
        for v in witness:
            member[v] = 1
        covered = bytearray(member)
        for a, b in zip(self.us, self.vs):
            if member[a]:
                covered[b] = 1
            if member[b]:
                covered[a] = 1
        if 0 in covered:
            return f"witness does not dominate vertex {covered.index(0)}"
        return None
