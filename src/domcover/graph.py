"""Simple undirected graphs on dense 0-based vertex ids, with the domination
predicates and structural decompositions the rest of the toolkit builds on.

A Graph keeps its rows in two flat int arrays (see Graph), so a graph of a
million vertices holds no Python object per vertex or per edge; the
predicates and decompositions here read rows as slices of those arrays.

Vertex sets are passed in as any iterable of ids and come back as sorted
tuples, so witnesses compare lexicographically and serialize stably.

parse_graph reads edge-list text once, in pieces, into the flat endpoint
array Graph builds from, and names the line of any error it finds there.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, count, islice
from operator import eq, lt, not_, or_, sub
from typing import Iterable, Iterator, TextIO

from .errors import CapacityError, DomainError, GraphParseError


class Graph:
    """Immutable simple undirected graph, stored as two flat int arrays.

    The neighbours of vertex v are targets[offsets[v]:offsets[v + 1]], in
    ascending id, so iteration order is deterministic everywhere downstream:
    offsets has n + 1 entries and targets 2m.  Both are array('i'), or
    array('q') when n or 2m does not fit in 32 bits.  No object is kept per
    vertex or per edge; adjacency, the tuple of row tuples that the small-
    graph searches read, is built on first use and cached.

    Construction validates everything once: ids in range, no self-loops, no
    duplicate edges.  Edges may come from any iterable of pairs, or from an
    array('q') of flat endpoints u0, v0, u1, v1, ... (the form parse_graph
    hands over); pairs are first flattened into such an array, so both take
    one build path, and an array given is never changed.  Range and
    self-loop checks run over the flat array in C (min, max and
    map(eq, ...)).  The rows are then built by counting: degrees, their
    prefix sums into offsets, and one pass that appends each endpoint to
    the other's row.  One pass in C checks that every row ascends strictly;
    only a row that does not is sorted, and a repeated edge shows up as a
    repeated entry in a sorted row.  Rows of edges given in write_graph's
    order ascend as built.  An error names the first bad edge in input
    order.

    An n too large to build raises CapacityError naming n, before any edge
    is checked when n is above sys.maxsize, and otherwise when the arrays do
    not fit in memory.
    """

    __slots__ = ("n", "_m", "_offsets", "_targets", "_adj", "_closed", "_open")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | array = ()):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        if n > sys.maxsize:
            raise CapacityError(f"n={n} exceeds the vertex limit of {sys.maxsize}")
        if isinstance(edges, array):
            if len(edges) % 2:
                raise ValueError("flat endpoint array has odd length")
            ends = edges
        else:
            ends = _endpoints(n, edges)
        if ends and (min(ends) < 0 or max(ends) >= n or any(map(eq, ends[::2], ends[1::2]))):
            raise DomainError(_first_rejected_edge(n, _pairs(ends))[1])
        try:
            offsets, targets = _rows(n, ends)
            simple = _sort_rows(offsets, targets)
        except MemoryError:
            raise CapacityError(f"n={n} vertices do not fit in memory") from None
        if not simple:
            raise DomainError(_first_rejected_edge(n, _pairs(ends))[1])
        self.n = n
        self._m = len(ends) // 2
        self._offsets = offsets
        self._targets = targets
        self._adj: tuple[tuple[int, ...], ...] | None = None
        self._closed: list[int] | None = None
        self._open: list[int] | None = None

    @property
    def m(self) -> int:
        return self._m

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples, built on first use; meant for small graphs."""
        if self._adj is None:
            o = self._offsets
            entries = tuple(self._targets)
            self._adj = tuple(map(entries.__getitem__, map(slice, o, islice(o, 1, None))))
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(self._row(v))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._offsets[v + 1] - self._offsets[v]

    def degrees(self) -> tuple[int, ...]:
        o = self._offsets
        return tuple(map(sub, islice(o, 1, None), o))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        t, hi = self._targets, self._offsets[u + 1]
        i = bisect_left(t, v, self._offsets[u], hi)
        return i < hi and t[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        t, o = self._targets, self._offsets
        for u in range(self.n):
            hi = o[u + 1]
            for v in t[bisect_right(t, u, o[u], hi):hi]:
                yield (u, v)

    def has_isolated_vertex(self) -> bool:
        o = self._offsets
        return any(map(eq, o, islice(o, 1, None)))

    def closed_masks(self) -> list[int]:
        """Per-vertex bitmask of N[v].  Only sensible for small graphs."""
        if self._closed is None:
            self._closed = [(1 << v) | _bits(row) for v, row in enumerate(self.adjacency)]
        return self._closed

    def open_masks(self) -> list[int]:
        """Per-vertex bitmask of N(v)."""
        if self._open is None:
            self._open = [_bits(row) for row in self.adjacency]
        return self._open

    def _row(self, v: int) -> array:
        """The neighbours of v, ascending, as a copy of its slice of targets."""
        return self._targets[self._offsets[v]:self._offsets[v + 1]]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise DomainError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._offsets == other._offsets
            and self._targets == other._targets
        )

    def __hash__(self) -> int:
        return hash((self.n, self._offsets.tobytes(), self._targets.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def _endpoints(n: int, edges: Iterable[tuple[int, int]]) -> array:
    """The flat endpoint array u0, v0, u1, v1, ... of an iterable of pairs.

    An edge that is not a pair raises ValueError.  An id beyond the 64-bit
    range of the array is out of range for any n, so it raises the
    DomainError that names the first rejected edge.
    """
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    if not set(map(len, edges)) <= {2}:
        bad = next(e for e in edges if len(e) != 2)
        raise ValueError(f"edge {tuple(bad)} is not a pair")
    try:
        return array("q", chain.from_iterable(edges))
    except OverflowError:
        raise DomainError(_first_rejected_edge(n, edges)[1]) from None


def _pairs(ends: array) -> Iterator[tuple[int, int]]:
    it = iter(ends)
    return zip(it, it)


def _rows(n: int, ends: array) -> tuple[array, array]:
    """offsets and targets of checked flat endpoints, each row in input order."""
    code = "i" if max(n, len(ends)) <= 0x7FFFFFFF else "q"
    # A list, whose subscripts CPython specializes; nearly every degree is a
    # cached small int, so it costs n pointers.
    degree = [0] * n
    for v in ends:
        degree[v] += 1
    offsets = array(code, [0])
    offsets.extend(accumulate(degree))
    del degree  # before fill, so the two are never held at once
    fill = offsets[:-1]  # the next free slot of each row
    targets = array(code, [0]) * len(ends)
    for u, v in _pairs(ends):
        i = fill[u]
        targets[i] = v
        fill[u] = i + 1
        i = fill[v]
        targets[i] = u
        fill[v] = i + 1
    return offsets, targets


def _sort_rows(offsets: array, targets: array) -> bool:
    """Sort in place each row that does not ascend strictly; False if a row
    repeats an entry.

    The check is one pass in C: entry i + 1 must exceed entry i unless a
    row starts at i + 1, so a row that ends in w may be followed by one
    that starts with w.
    """
    starts = bytearray(len(targets) + 1)
    for i in offsets:
        starts[i] = 1

    def steps() -> Iterator[int]:
        """Whether entry i + 1 may follow entry i, for each i."""
        return map(or_, map(lt, targets, islice(targets, 1, None)), islice(starts, 1, None))

    if all(steps()):
        return True
    # the rows that hold an entry i + 1 that may not follow entry i
    for v in {bisect_right(offsets, i) - 1 for i in compress(count(1), map(not_, steps()))}:
        row = sorted(targets[offsets[v]:offsets[v + 1]])
        if any(map(eq, row, islice(row, 1, None))):
            return False
        targets[offsets[v]:offsets[v + 1]] = array(targets.typecode, row)
    return True


def _first_rejected_edge(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, str] | None:
    """Position and message of the first edge, in input order, that Graph
    rejects: out of range, a self-loop, or a repeat of an earlier edge in
    either orientation.  None when every edge is valid.

    Graph's own pass only detects that some edge is bad; this rescan, run
    on the error path alone, names the one an edge-by-edge check meets first.
    """
    seen: set[tuple[int, int]] = set()
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return i, f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return i, f"self-loop at vertex {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return i, f"duplicate edge ({key[0]}, {key[1]})"
        seen.add(key)
    return None


def _bits(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def as_vertex_set(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of ids to a sorted duplicate-free tuple in V(G)."""
    out = sorted(set(vertices))
    if out and not (0 <= out[0] and out[-1] < g.n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise DomainError(f"vertex {bad} out of range for n={g.n}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Edge-list text format


# One line of write_graph's shape: two ASCII decimal fields, spaces or tabs
# only, ending in "\n".  At most 18 digits keeps every id below 2^63, the
# range of array('q').
_LINES = re.compile(r"(?:[ \t]*[0-9]{1,18}[ \t]+[0-9]{1,18}[ \t]*\n)*")
_CHUNK = 1 << 16  # characters read or sliced at a time


def parse_graph(source: str | TextIO) -> Graph:
    """Parse the edge-list format from a string or an open text file.

    The first non-comment line is the header "n m"; exactly m lines "u v"
    follow.  Lines starting with "#" are comments and blank lines are
    skipped.  All ids are decimal.  This pass checks only the line syntax:
    the header, two integer fields per line and the number of edge lines.
    Graph validates the edges themselves (ids in range, no self-loops, no
    duplicates in either orientation), and the parser names the line of the
    edge it rejects.  Every error is a GraphParseError naming the 1-based
    line number, and the first bad line wins whatever the kind of error.

    The text is read once, from a file's current position, in pieces of
    about 64 KB (see _pieces) that end in a line break, so it is never held
    whole and its lines are numbered as in text.splitlines().  Every edge
    goes into one array('q') of endpoints, which Graph builds from: no
    string per line and no tuple per edge is kept.  A piece in
    write_graph's shape (every line two ASCII decimal fields separated by
    spaces or tabs and ending in "\n") is tokenized in one go; any other
    piece (comments, blank lines, CRs, other digits or signs) is read line
    by line, and an error is raised on the line where it is found.  The
    pieces are small because matching a large one grows the regex engine's
    backtracking stack, and that memory stays with the process: 1 MB
    pieces left about 27 MB more resident.
    """
    n = m = -1  # until the header is read
    head = 0  # the header's line
    lineno = 0  # the lines of the pieces so far
    # for each blank or comment line after the header, the edges before it,
    # so that edge i is on line head + 1 + i + bisect_right(skips, i)
    skips: list[int] = []
    # The flat endpoints u0, v0, u1, v1, ...: a list once an id does not fit
    # array('q'), as such text can never build a graph.
    ends: array | list[int] = array("q")

    def rejected() -> GraphParseError | None:
        """The error for the first edge so far that Graph rejects, on that
        edge's line; None when Graph accepts them all."""
        first = _first_rejected_edge(n, _pairs(ends))
        if first is None:
            return None
        i, reason = first
        u, v = ends[2 * i], ends[2 * i + 1]
        if not (0 <= u < n and 0 <= v < n):
            reason = f"vertex id {u if not 0 <= u < n else v} out of range for n={n}"
        return GraphParseError(f"line {head + 1 + i + bisect_right(skips, i)}: {reason}")

    for piece in _pieces(source):
        if _LINES.fullmatch(piece):
            fields = map(int, piece.split())
            if m < 0:
                n, m, head = next(fields), next(fields), lineno + 1
            ends.extend(fields)
            lineno += piece.count("\n")
            if len(ends) > 2 * m:
                del ends[2 * m:]
                raise rejected() or GraphParseError(
                    f"line {head + 1 + m + bisect_right(skips, m)}: more than {m} edge lines"
                )
            continue
        for raw in piece.splitlines():
            lineno += 1
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                if m >= 0:
                    skips.append(len(ends) // 2)
                continue
            if len(parts) != 2:
                raise rejected() or GraphParseError(
                    f"line {lineno}: expected two fields, got {len(parts)}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise rejected() or GraphParseError(f"line {lineno}: non-integer field") from None
            if m < 0:
                if u < 0 or v < 0:
                    raise GraphParseError(f"line {lineno}: negative count in header")
                n, m, head = u, v, lineno
            elif len(ends) == 2 * m:
                raise rejected() or GraphParseError(f"line {lineno}: more than {m} edge lines")
            else:
                # the pair first: extend((u, v)) would keep u when v overflows
                try:
                    ends += array("q", (u, v))
                except OverflowError:
                    if isinstance(ends, array):
                        ends = ends.tolist()
                    ends += (u, v)
    if m < 0:
        raise GraphParseError("line 1: missing header")
    if len(ends) != 2 * m:
        raise rejected() or GraphParseError(
            f"line {lineno}: expected {m} edge lines, found {len(ends) // 2}"
        )
    try:
        return Graph(n, ends if isinstance(ends, array) else _pairs(ends))
    except DomainError:
        raise rejected() from None


def _pieces(source: str | TextIO) -> Iterator[str]:
    """The source as pieces that end right after a line break, but for the
    last: slices of a string or reads from a file of _CHUNK characters, each
    cut after its last "\n", or after a later "\r" that is not its last
    character (which a "\n" in the next read may follow), and the rest
    carried into the next piece.  No piece ends between the two characters
    of a "\r\n", so the pieces' lines are those of text.splitlines()."""
    if isinstance(source, str):
        reads = (source[i:i + _CHUNK] for i in range(0, len(source), _CHUNK))
    else:
        reads = iter(lambda: source.read(_CHUNK), "")
    rest = ""  # the unfinished line the reads so far end in
    for chunk in reads:
        cut = max(chunk.rfind("\n"), chunk.rfind("\r", 0, len(chunk) - 1)) + 1
        if not cut:
            rest += chunk
            continue
        yield rest + chunk[:cut]
        rest = chunk[cut:]
    if rest:
        yield rest


def write_graph(g: Graph) -> str:
    """Emit the edge-list format: header then edges sorted with u < v."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Domination predicates


def cover_number(g: Graph, vertices: Iterable[int]) -> int:
    """Sum of degrees over a vertex set."""
    o = g._offsets
    return sum(o[v + 1] - o[v] for v in as_vertex_set(g, vertices))


def _hits(g: Graph, dset: Iterable[int], closed: bool) -> list[int]:
    """For each vertex, the members of dset whose closed (closed=True) or
    open neighbourhood holds it."""
    hits = [0] * g.n
    for v in dset:
        if closed:
            hits[v] += 1
        for u in g._row(v):
            hits[u] += 1
    return hits


def is_dominating(g: Graph, d: Iterable[int]) -> bool:
    """True iff every vertex is in d or adjacent to a vertex of d."""
    return 0 not in _hits(g, as_vertex_set(g, d), True)


def is_total_dominating(g: Graph, d: Iterable[int]) -> bool:
    """True iff every vertex (members included) has a neighbor in d."""
    if g.has_isolated_vertex():
        raise DomainError("total domination is undefined with isolated vertices")
    return 0 not in _hits(g, as_vertex_set(g, d), False)


def is_efficient_dominating(g: Graph, d: Iterable[int]) -> bool:
    """True iff closed neighborhoods of d partition V: each non-member has
    exactly one neighbor in d and members have none."""
    return _hits(g, as_vertex_set(g, d), True).count(1) == g.n


def private_neighbors(g: Graph, v: int, d: Iterable[int]) -> tuple[int, ...]:
    """Vertices dominated by v but by no other member of d (closed sense).

    Requires v in d.  Returns N[v] minus N[d - {v}], sorted ascending.
    """
    dset = as_vertex_set(g, d)
    g._check_vertex(v)
    if v not in dset:
        raise DomainError(f"vertex {v} is not a member of the given set")
    hits = _hits(g, dset, True)
    return tuple(u for u in sorted((v, *g._row(v))) if hits[u] == 1)


def first_unreachable(g: Graph, root: int = 0) -> int | None:
    """Smallest vertex that cannot be reached from root, or None if none."""
    if g.n == 0:
        return None
    seen = bytearray(g.n)
    seen[root] = 1
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for u in g._row(v):
            if not seen[u]:
                seen[u] = 1
                frontier.append(u)
    w = seen.find(0)
    return None if w < 0 else w


def is_connected(g: Graph) -> bool:
    """True iff the graph has one component (the empty graph counts as connected)."""
    return first_unreachable(g) is None


# ---------------------------------------------------------------------------
# Blocks, cut vertices, and hereditary classes


def blocks_and_cut_vertices(g: Graph) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Biconnected components and cut vertices of a connected graph.

    Iterative depth-first low-link computation; linear in n + m.  Each
    vertex but 0 goes on a vertex stack when the walk reaches it, and when a
    child v of p finishes with low[v] >= disc[p], the stack from v up is
    v's block without p.  Blocks come back as sorted vertex tuples, the
    block list itself sorted lexicographically.  Disconnected input raises
    DomainError naming a vertex outside the component of vertex 0.
    """
    n = g.n
    if n == 0:
        raise DomainError("empty graph has no block structure")
    if n == 1:
        return ((0,),), ()
    t, o = g._targets, g._offsets
    disc = [0] * n
    low = [0] * n
    disc[0] = low[0] = 1
    clock = 1
    cuts: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    reached: list[int] = []
    # (vertex, its parent, its row's iterator, its index in reached)
    stack: list[tuple[int, int, Iterator[int], int]] = [(0, -1, iter(t[o[0]:o[1]]), 0)]
    root_children = 0
    while stack:
        v, parent, it, mark = stack[-1]
        child = -1
        for u in it:
            if u == parent:
                continue
            if disc[u] == 0:
                clock += 1
                disc[u] = low[u] = clock
                child = u
                break
            if disc[u] < low[v]:
                low[v] = disc[u]
        if child >= 0:
            stack.append((child, v, iter(t[o[child]:o[child + 1]]), len(reached)))
            reached.append(child)
            continue
        stack.pop()
        if not stack:
            break
        pv = stack[-1][0]
        if low[v] < low[pv]:
            low[pv] = low[v]
        if low[v] >= disc[pv]:
            block = reached[mark:]
            del reached[mark:]
            block.append(pv)
            block.sort()
            blocks.append(tuple(block))
            if pv == 0:
                root_children += 1
            else:
                cuts.add(pv)
    if root_children >= 2:
        cuts.add(0)
    if 0 in disc:
        w = disc.index(0)
        raise DomainError(f"graph is disconnected: vertex {w} is not reachable from 0")
    return tuple(sorted(blocks)), tuple(sorted(cuts))


def is_block_graph(g: Graph) -> bool:
    """True iff every block of the (connected) graph induces a clique.

    The blocks partition the edges, and a block on k vertices holds at most
    C(k, 2) of them, so the sum of C(k, 2) over the blocks is at least m and
    equals m exactly when every block is a clique.
    """
    return blocks_are_cliques(g, blocks_and_cut_vertices(g)[0])


def blocks_are_cliques(g: Graph, blocks: tuple[tuple[int, ...], ...]) -> bool:
    """The edge-count test of is_block_graph on blocks already computed."""
    return sum(len(b) * (len(b) - 1) // 2 for b in blocks) == g.m


def is_p4_free(g: Graph) -> bool:
    """True iff no 4 vertices induce a path.

    Plain quartic scan: an induced subgraph on 4 vertices is a path exactly
    when it has 3 edges and degree multiset {1, 1, 2, 2}.
    """
    n = g.n
    edge_set = {(u, v) for u, v in g.edges()}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for d in range(c + 1, n):
                    quad = (a, b, c, d)
                    degs = [0, 0, 0, 0]
                    count = 0
                    for i in range(4):
                        for j in range(i + 1, 4):
                            if (quad[i], quad[j]) in edge_set:
                                count += 1
                                degs[i] += 1
                                degs[j] += 1
                    if count == 3 and sorted(degs) == [1, 1, 2, 2]:
                        return False
    return True
