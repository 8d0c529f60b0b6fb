"""Finite complete graphs with every edge coloured from {1..m}.

Vertices are 0-based integers; colours are 1-based. Colours live in a
dense symmetric matrix with a zero diagonal, so lookups are O(1) and the
consistency checks below vectorise over whole graphs.

The module covers three things: seeded random generation, the
witness/extension machinery (find_witness, missing_queries, saturate,
extend_iso) that makes finite graphs behave like the generic coloured
graph up to a chosen query size, and the even-palette obstruction: no
vertex permutation with a 2-cycle can induce a fixed-point-free
involution of the colours, decided by the argument ObstructionReport
states rather than by enumeration.

A witness query is a pair (vertices, colours) of equal-length sequences:
distinct vertices, each given a colour. Its witnesses are the vertices
joined to vertices[i] by colours[i] for every i. The extension property's
disjoint sets U_1..U_m are the query's vertices of each colour.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .perms import Perm, _is_int

ROW_BLOCK_ENTRIES = 1 << 20  # whole-matrix scans work on row blocks or tiles of about this size
MAX_PALETTE = 255  # colours fit one byte, and reports list every colour
MAX_VERTICES = 1 << 14  # a 256 MiB uint8 matrix; complement --m 7 needs 10080
MAX_SWEEP_QUERIES = 10**7  # witness queries per sweep; also bounds a block's table of codes
# listed per sweep, about 18 bytes per vertex of the sweep's width min(k, n), which
# MAX_SWEEP_QUERIES keeps at most 14 when m >= 2: under 130 MB at the limit
MAX_MISSING_QUERIES = 5 * 10**5
SWEEP_BLOCK_ENTRIES = 1 << 14  # colours a witness sweep or the graph writer reads at once
MAX_GRAPH_FILE_BYTES = 1 << 25  # parsing peaks near 20 bytes of RSS per byte: about 650 MB
STREAM_WORDS = 1 << 10  # random words a colour stream draws at least at once


Query = tuple[Sequence[int], Sequence[int]]  # (vertices, colours); see the module docstring


class WitnessMissingError(RuntimeError):
    """A witness query had no solution; the target graph is not saturated enough."""


@dataclass(frozen=True, eq=False)
class ColouredGraph:
    """Complete graph on n vertices, unordered pairs coloured from 1..m.

    The colours are kept as a read-only uint8 matrix. Any integer matrix is
    checked in its own dtype and then copied; a read-only uint8 matrix,
    such as a builder hands over once it is done writing, is kept as it is."""

    m: int
    n: int
    colours: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_PALETTE:
            raise ValueError(f"palette size {self.m} is outside the limits 1..{MAX_PALETTE}")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        C = np.asarray(self.colours)  # checked in its own dtype, then narrowed
        if C.shape != (self.n, self.n):
            raise ValueError(f"colour matrix must be {self.n}x{self.n}, got {C.shape}")
        if not np.issubdtype(C.dtype, np.integer):
            raise ValueError(f"colours must be integers, got {C.dtype}")
        if np.diagonal(C).any():
            raise ValueError("diagonal must be zero (no self-pairs)")
        # square tiles of about ROW_BLOCK_ENTRIES entries: rows and columns split alike
        tiles = list(row_blocks(self.n, math.isqrt(ROW_BLOCK_ENTRIES)))
        for t, rows in enumerate(tiles):
            block = C[rows]
            # with a zero diagonal, off-diagonal colours lie in 1..m exactly
            # when none is negative, none exceeds m and none is zero
            if block.min() < 0 or block.max() > self.m or (
                np.count_nonzero(block) != len(block) * (self.n - 1)
            ):
                raise ValueError(f"colours must lie in 1..{self.m}")
            for cols in tiles[t:]:  # each tile on or above the diagonal
                if not np.array_equal(block[:, cols], C[cols, rows].T):
                    raise ValueError("colour matrix must be symmetric")
        if C.dtype != np.uint8 or C.flags.writeable:
            C = C.astype(np.uint8)  # a copy: the caller's array stays theirs
            C.flags.writeable = False
        object.__setattr__(self, "colours", C)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColouredGraph):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and np.array_equal(self.colours, other.colours)
        )

    # -- serialization ----------------------------------------------------

    def json_chunks(self) -> Iterator[str]:
        """to_json() without its newline, read from the matrix in blocks of rows."""
        yield '{"colours": ['
        for i, text in enumerate(self._pair_lines(b", [", b", ", b", ", b"]")):
            yield text[2:] if i == 0 else text  # the first triple follows the bracket
        yield f'], "m": {self.m}, "n": {self.n}}}'

    def dot_chunks(self) -> Iterator[str]:
        """The graph in DOT: one line per vertex, then one per pair in blocks of rows."""
        yield "graph coloured {\n"
        yield _text(_join(b"  ", (_digits(self.n), np.arange(self.n)), b";\n"))
        yield from self._pair_lines(b"  ", b" -- ", b" [color_index=", b"];\n")
        yield "}\n"

    def _pair_lines(self, head: bytes, sep: bytes, colour_sep: bytes, tail: bytes) -> Iterator[str]:
        """Every pair u < v as head u sep v colour_sep c tail, in row-major
        order, one string per block of rows of about SWEEP_BLOCK_ENTRIES entries.
        Each line joins three records: head u and sep v colour_sep, both from
        a table over the vertices, and c tail from a table over the colours."""
        n, vertex = self.n, (_digits(self.n), np.arange(self.n))
        firsts, seconds = _join(head, vertex), _join(sep, vertex, colour_sep)
        colours = _join((_digits(self.m + 1), np.arange(self.m + 1)), tail)
        line = [("u", firsts.dtype), ("v", seconds.dtype), ("c", colours.dtype)]
        for rows in row_blocks(n - 1, n + 1, SWEEP_BLOCK_ENTRIES):  # the rows u that hold a pair
            us = np.arange(rows.start, rows.stop)
            later = np.arange(n) > us[:, None]
            records = np.empty(np.count_nonzero(later), dtype=line)
            records["u"] = np.repeat(firsts[us], n - 1 - us)
            records["v"] = np.broadcast_to(seconds, later.shape)[later]
            records["c"] = colours[self.colours[rows][later]]
            yield _text(records)

    def to_json(self) -> str:
        return "".join(self.json_chunks()) + "\n"

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data: object) -> "ColouredGraph":
        if not isinstance(data, dict):
            raise ValueError("graph JSON must be an object")
        try:
            m, n, entries = data["m"], data["n"], data["colours"]
        except KeyError as exc:
            raise ValueError(f"graph JSON missing key {exc}") from exc
        if not _is_int(m) or not _is_int(n):
            raise ValueError("m and n must be integers")
        if not isinstance(entries, list):
            raise ValueError("colours must be a list of [u, v, c] triples")
        return graph_from_edges(m, n, entries)

    @classmethod
    def from_json(cls, text: str) -> "ColouredGraph":
        return cls.from_json_dict(load_json(text))


def row_blocks(count: int, width: int, entries: Optional[int] = None) -> Iterator[slice]:
    """Consecutive slices over rows 0..count-1 of `width` entries each, a
    block holding about `entries` entries (ROW_BLOCK_ENTRIES, read at call
    time, when None) and at least one row; the last is clamped to count."""
    rows = max(1, (ROW_BLOCK_ENTRIES if entries is None else entries) // max(1, width))
    return (slice(start, min(start + rows, count)) for start in range(0, count, rows))


def _digits(count: int) -> np.ndarray:
    """The integers 0..count-1 as ASCII digits, one fixed-width bytes record
    each, padded with NUL bytes to the width of the largest."""
    return np.arange(count).astype(f"S{len(str(max(count - 1, 0)))}")


def _join(*parts: bytes | tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One bytes record per row: each part is bytes, the same on every row,
    or a (_digits table, values) pair giving one value per row. Each record
    holds its parts side by side, NUL padding included, which _text strips."""
    if any(isinstance(part, bytes) and b"\0" in part for part in parts):
        raise ValueError("a literal holds a NUL byte, which the renderer strips as padding")
    columns = [np.array(part) if isinstance(part, bytes) else part[0][part[1]] for part in parts]
    rows = next(len(part[1]) for part in parts if not isinstance(part, bytes))
    records = np.empty(rows, dtype=[(f"f{i}", column.dtype) for i, column in enumerate(columns)])
    for i, column in enumerate(columns):
        records[f"f{i}"] = column
    return records.view(f"S{records.itemsize}")


def _text(records: np.ndarray) -> str:
    """The records' bytes in order, NUL padding stripped."""
    return records.tobytes().replace(b"\0", b"").decode("ascii")


def load_json(text: str) -> object:
    """json.loads, raising ValueError also for nesting too deep to parse."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nests too deeply") from exc


def read_graph(path: str) -> ColouredGraph:
    """The graph JSON file (or pipe) at path. At most MAX_GRAPH_FILE_BYTES + 1
    bytes are read, and a longer input is refused before it is parsed."""
    parts, size = [], 0
    with open(path, "rb") as source:  # read(limit) would allocate the whole limit up front
        while size <= MAX_GRAPH_FILE_BYTES and (
            part := source.read1(min(1 << 16, MAX_GRAPH_FILE_BYTES + 1 - size))
        ):
            parts.append(part)
            size += len(part)
    if size > MAX_GRAPH_FILE_BYTES:
        raise ValueError(f"graph file {path} exceeds the limit of {MAX_GRAPH_FILE_BYTES} bytes")
    text = io.TextIOWrapper(io.BytesIO(b"".join(parts)), encoding="utf-8").read()  # as read_text
    return ColouredGraph.from_json(text)


def graph_from_edges(m: int, n: int, entries: Iterable[Sequence[int]]) -> ColouredGraph:
    """Build a graph from [u, v, c] triples; every pair exactly once. The
    triples are counted before the n x n matrix is allocated, so a huge n
    costs nothing unless that many triples were actually given."""
    entries = list(entries)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 1 <= m <= MAX_PALETTE:
        raise ValueError(f"palette size {m} is outside the limits 1..{MAX_PALETTE}")
    expected = n * (n - 1) // 2
    if len(entries) != expected:
        raise ValueError(f"expected {expected} pairs, got {len(entries)}")
    check_vertex_count(n)
    C = np.zeros((n, n), dtype=np.uint8)
    seen: set[tuple[int, int]] = set()
    for entry in entries:
        triple = isinstance(entry, (list, tuple)) and len(entry) == 3
        if not triple or not all(_is_int(x) for x in entry):
            raise ValueError(f"colour entry must be [u, v, c], got {entry!r}")
        u, v, c = entry
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"invalid pair ({u}, {v}) for {n} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate pair {key}")
        if not 1 <= c <= m:
            raise ValueError(f"colour {c} out of range 1..{m}")
        seen.add(key)
        C[u, v] = C[v, u] = c
    C.flags.writeable = False  # handed over: ColouredGraph keeps it without a copy
    return ColouredGraph(m=m, n=n, colours=C)


def check_vertex_count(n: int) -> None:
    """Refuse n before anything sized by it is drawn or allocated."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def colour_stream(rng: random.Random, m: int) -> Callable[[int], np.ndarray]:
    """draw(count) returns, as uint8, the next count values that successive
    rng.randrange(m) + 1 calls would return. CPython's randrange(m) keeps
    the top m.bit_length() bits of one 32-bit word and rejects values >= m;
    getrandbits(32 * w) returns w such words, the first as the least
    significant. Words are drawn in batches, and the values accepted but
    not yet returned wait for the next call; the stream must be rng's only
    reader."""
    if m < 1:
        raise ValueError(f"a colour stream draws from 1..m, and m = {m} leaves it empty")
    bits = m.bit_length()
    drawn = np.zeros(0, dtype=np.uint8)  # accepted, plus 1, not yet returned

    def draw(count: int) -> np.ndarray:
        nonlocal drawn
        while len(drawn) < count:
            words = max(STREAM_WORDS, ((count - len(drawn)) << bits) // m + 1)  # about enough
            raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), "<u4")
            values = (raw >> (32 - bits)).astype(np.uint8)  # below 2^bits <= 256
            drawn = np.concatenate([drawn, values[values < m] + 1])
        values, drawn = drawn[:count], drawn[count:]
        return values

    return draw


def check_palette(m: int) -> None:
    """Raise unless m is in 2..MAX_PALETTE, the palettes a command draws from."""
    if not 2 <= m <= MAX_PALETTE:
        raise ValueError(f"palette size {m} is outside the limits 2..{MAX_PALETTE}")


def random_graph(n: int, m: int, seed: int) -> ColouredGraph:
    """Graph on n vertices with pair colours drawn independently and
    uniformly from 1..m by a deterministic seeded generator."""
    check_palette(m)  # before n^2 colours are drawn
    check_vertex_count(n)
    draw = colour_stream(random.Random(f"random-graph:{seed}"), m)  # pairs in row-major order
    C = np.zeros((n, n), dtype=np.uint8)
    for rows in row_blocks(n - 1, n + 1):  # the rows u that hold a pair u < v, in order
        u, v = np.nonzero(np.arange(n) > np.arange(rows.start, rows.stop)[:, None])
        u += rows.start
        C[u, v] = C[v, u] = draw(len(u))
    C.flags.writeable = False
    return ColouredGraph(m=m, n=n, colours=C)


def colour_lookup(perms: Perm | Sequence[Perm]) -> np.ndarray:
    """Colour permutations as lookup tables indexed by colour: [..., c] is
    the image of c, and column 0 maps the diagonal's 0 to itself. Takes one
    permutation or a sequence of them, of degree at most MAX_PALETTE, so
    the tables are uint8 like the colour matrices."""
    table = np.asarray(perms, dtype=np.int64)
    if table.shape[-1] > MAX_PALETTE:
        raise ValueError(
            f"colour permutations of degree {table.shape[-1]} exceed the limit of {MAX_PALETTE}"
        )
    return np.pad(table.astype(np.uint8), [(0, 0)] * (table.ndim - 1) + [(1, 0)])


def is_colour_consistent(G: ColouredGraph, s: Perm, pi: Perm) -> bool:
    """Whether the vertex permutation s carries every pair colour to its
    image under pi: colour(s(u), s(v)) == pi(colour(u, v)) for all u != v."""
    if len(s) != G.n:
        raise ValueError(f"vertex permutation degree {len(s)} != vertex count {G.n}")
    if len(pi) != G.m:
        raise ValueError(f"colour permutation degree {len(pi)} != palette {G.m}")
    sv = np.asarray(s, dtype=np.int64) - 1  # 0-based vertex images
    table = colour_lookup(pi)
    C = G.colours
    return all(
        np.array_equal(C[sv[rows]][:, sv], table[C[rows]]) for rows in row_blocks(G.n, G.n)
    )


# -- witness queries -------------------------------------------------------


def witness_queries(n: int, m: int, max_total: int) -> Iterator[Query]:
    """All queries over vertices 0..n-1 with at most max_total vertices, in
    a fixed order: by size, then chosen vertices, then colours."""
    for size in range(max_total + 1):
        for verts in itertools.combinations(range(n), size):
            for colours in itertools.product(range(1, m + 1), repeat=size):
                yield verts, colours


def check_query(q: Query, n: int, m: int) -> Query:
    """Return q = (vertices, colours), or raise unless it pairs distinct
    vertices of 0..n-1 one to one with colours of 1..m."""
    verts, colours = q
    if len(verts) != len(colours):
        raise ValueError(f"query pairs {len(verts)} vertices with {len(colours)} colours")
    if len(set(verts)) != len(verts):
        raise ValueError(f"query vertices {tuple(verts)} repeat")
    if not all(0 <= v < n for v in verts):
        raise ValueError(f"query vertices must lie in 0..{n - 1}")
    if not all(1 <= c <= m for c in colours):
        raise ValueError(f"query colours must lie in 1..{m}")
    return verts, colours


def find_witness(G: ColouredGraph, q: Query) -> Optional[int]:
    """Smallest vertex joined by colours[i] to vertices[i] for every i, or
    None if no such vertex exists. The zero diagonal keeps q's own vertices
    out."""
    verts, colours = check_query(q, G.n, G.m)
    hits = np.flatnonzero(np.all(G.colours[:, list(verts)] == colours, axis=1))
    return int(hits[0]) if hits.size else None


def missing_queries(G: ColouredGraph, k: int, *, since: int = 0) -> list[Query]:
    """The queries of at most k vertices that have no witness and whose
    largest vertex is at least `since`, in witness_queries order; the empty
    query counts only when since is 0. The queries come from
    _missing_blocks, which saturate reads directly."""
    return [
        query
        for verts, colours in _missing_blocks(G.colours, G.n, G.m, k, since)
        for query in zip(map(tuple, verts.tolist()), map(tuple, colours.tolist()))
    ]


def _missing_blocks(
    C: np.ndarray, n: int, m: int, k: int, since: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """missing_queries over the n vertices in the corner of the colour
    matrix C, as blocks (vertices, colours) of queries of one size, one
    query a row. Every vertex w outside a tuple U reads its colours C[w, U]
    as a base-m code, so the queries on U that miss are the codes that no
    outside vertex has; ascending code is product order. MAX_SWEEP_QUERIES
    counts every query, whatever `since` is, before any is read;
    MAX_MISSING_QUERIES bounds the queries listed."""
    if sweep_exceeds_limit(n, m, k):
        raise ValueError(f"queries of size <= {k} over {n} vertices and {m} colours "
                         f"exceed the limit of {MAX_SWEEP_QUERIES} per sweep")
    if n == 0 and since == 0:  # the empty query, which any vertex witnesses
        yield np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), dtype=np.uint8)
    listed = 0
    for size in range(1, min(k, n) + 1):
        codes = m**size
        place = m ** np.arange(size - 1, -1, -1)  # first vertex, top digit
        low = int(place.sum())  # the code of colours 1, ..., 1 on tuple 0
        for U in _tuples_since(n, size, since, max(1, SWEEP_BLOCK_ENTRIES // (n + 1))):
            # Horner's rule over U's columns, read as rows of the symmetric C,
            # from the tuple's index: tuple t's codes fill t * codes + low + [0, codes)
            code = C[U[:, 0], :n] + np.arange(0, len(U) * m, m)[:, None]
            for column in U.T[1:]:
                code *= m
                code += C[column, :n]
            sink = len(U) * codes + low
            code[np.arange(len(U))[:, None], U] = sink  # w inside U
            seen = np.zeros(sink + 1, dtype=bool)
            seen[code] = True
            hole = np.flatnonzero(~seen[low:-1])
            listed += len(hole)
            if listed > MAX_MISSING_QUERIES:
                raise ValueError(f"queries of size <= {k} over {n} vertices and {m} colours without "
                                 f"a witness exceed the limit of {MAX_MISSING_QUERIES} per sweep")
            if len(hole):
                yield U[hole // codes], (hole[:, None] // place % m + 1).astype(np.uint8)


def sweep_exceeds_limit(n: int, m: int, k: int) -> bool:
    """Whether a sweep over n vertices counts more than MAX_SWEEP_QUERIES
    queries of at most k vertices: the sum of C(n, s) * m^s over s <=
    min(k, n), summed lazily so that it stops at the first size past the
    limit. The count only grows with n."""
    totals = itertools.accumulate(math.comb(n, s) * m**s for s in range(min(k, n) + 1))
    return any(total > MAX_SWEEP_QUERIES for total in totals)


def _tuples_since(n: int, size: int, since: int, rows: int) -> Iterator[np.ndarray]:
    """The tuples of itertools.combinations(range(n), size), size >= 1,
    whose last vertex is at least `since`, in that order, as arrays of at
    most `rows` tuples, one a row, drawn without the rest: each head of
    size - 1 vertices is repeated once for every last vertex after it and
    from `since` on."""
    heads = itertools.combinations(range(n - 1), size - 1)
    while batch := list(itertools.islice(heads, rows)):
        H = np.fromiter(itertools.chain.from_iterable(batch), np.intp, len(batch) * (size - 1))
        H = H.reshape(len(batch), size - 1)
        after = np.maximum(H.max(axis=1, initial=-1), since - 1)  # the empty head ends at -1
        counts = np.maximum(n - 1 - after, 0)
        tuples = np.empty((counts.sum(), size), dtype=np.intp)
        tuples[:, :-1] = np.repeat(H, counts, axis=0)
        # the last vertices count up from after + 1, restarting at each head
        tuples[:, -1] = np.arange(len(tuples)) + np.repeat(after + 1 - counts.cumsum() + counts, counts)
        for block in row_blocks(len(tuples), 1, rows):
            yield tuples[block]


def saturate(
    G: ColouredGraph, k: int, seed: int, rounds: int = 8
) -> tuple[ColouredGraph, bool]:
    """Append witnesses until every query of at most k vertices has one.

    Each sweep takes the missing queries of the graph as it stood when the
    sweep began. One that no vertex added earlier in the sweep witnesses
    gets a fresh vertex, its edges to the query's vertices forced to the
    query's colours and seeded-random elsewhere. Stops after a sweep that
    adds nothing (achieved=True); after `rounds` sweeps that all added
    vertices, one more sweep decides achieved without adding any.
    Deterministic.

    The first sweep reads every query; each later one reads only the
    queries on a vertex the sweep before it added. The others already have
    a witness: that sweep gave one to each query it found missing, and no
    colour between vertices already there ever changes.

    The sweep holds its missing queries as two arrays, vertices and
    colours, padded to width min(k, n) with the vertex -1 and the colour 0.
    The working matrix keeps its last row and column at 0, so every row
    reads colour 0 at the padding. Each added vertex's row marks, in one
    comparison, the queries it witnesses; the next vertex goes to the first
    query left unmarked. The mirrored columns of the rows a sweep added are
    written when it ends, since the sweep reads only columns below n.

    A sweep that finds queries missing is refused at the first of them,
    before it lists the rest, when the next sweep is bound to exceed
    MAX_SWEEP_QUERIES: each of the m^s queries on an s-tuple, s = min(k, n),
    needs its own vertex outside the tuple, so the graph grows to at least
    max(n + 1, s + m^s) vertices.
    """
    if k < 1:
        raise ValueError("witness size must be at least 1")
    if rounds < 1:
        raise ValueError("at least one sweep is required")
    m, n = G.m, G.n
    draw = colour_stream(random.Random(f"saturate:{seed}"), m)
    D = np.zeros((n + 1, n + 1), dtype=np.uint8)  # grown per sweep; every graph is its corner
    D[:n, :n] = G.colours
    since = 0  # every query on vertices below `since` has a witness
    for sweep in range(rounds + 1):
        blocks = _missing_blocks(D, n, m, k, since)
        first = next(blocks, None)
        if first is None or sweep == rounds:  # the deciding sweep adds nothing
            break
        s = min(k, n)
        if sweep_exceeds_limit(max(n + 1, s + m**s), m, k):
            raise ValueError(f"saturating {n} vertices and {m} colours at k = {k} grows the "
                             f"graph to at least {s} + {m}^{s} vertices, and the queries over "
                             f"them exceed the limit of {MAX_SWEEP_QUERIES} per sweep")
        parts = [first, *blocks]
        count = sum(len(verts) for verts, _ in parts)
        V = np.full((s, count), -1, dtype=np.intp)  # query j is column j
        Q = np.zeros((s, count), dtype=np.uint8)
        at = 0
        for verts, colours in parts:
            V[: verts.shape[1], at : at + len(verts)] = verts.T
            Q[: verts.shape[1], at : at + len(verts)] = colours.T
            at += len(verts)
        # room for a vertex per missing query, within the limit checked below
        size = n + min(count, max(1, MAX_VERTICES - n)) + 1
        if size > len(D):
            D, old = np.zeros((size, size), dtype=np.uint8), D
            D[:n, :n] = old[:n, :n]
        pending = np.ones(count, dtype=bool)
        v = n
        while pending[j := int(pending.argmax())]:
            check_vertex_count(v + 1)
            row, U = D[v], V[:, j]
            free = np.arange(len(row)) < v
            free[U] = False
            row[free] = draw(np.count_nonzero(free))  # ascending u, one draw per pair
            row[U] = Q[:, j]
            pending &= (row[V] != Q).any(axis=0)
            v += 1
        D[:v, n:v] |= D[n:v, :v].T  # the new rows hold zeros at and past their diagonal
        since, n = n, v
    H = G if n == G.n else ColouredGraph(m=m, n=n, colours=D[:n, :n])  # checked once, at the end
    return H, first is None


@dataclass(frozen=True)
class PartialIso:
    """Injective partial map between vertex sets, stored as sorted pairs."""

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        pairs = tuple(sorted((int(a), int(b)) for a, b in self.pairs))
        if len({a for a, _ in pairs}) != len(pairs) or len({b for _, b in pairs}) != len(pairs):
            raise ValueError("partial map must be injective")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def sources(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.pairs)

    def images(self) -> frozenset[int]:
        return frozenset(b for _, b in self.pairs)

    def extended(self, v: int, w: int) -> "PartialIso":
        return PartialIso(self.pairs + ((v, w),))

    def inverse(self) -> "PartialIso":
        return PartialIso(tuple((b, a) for a, b in self.pairs))


def validate_partial_iso(A: ColouredGraph, B: ColouredGraph, p: PartialIso) -> None:
    """Raise unless p is a colour-preserving injection from A into B."""
    if A.m != B.m:
        raise ValueError("palette sizes differ")
    for a, b in p.pairs:
        if not 0 <= a < A.n:
            raise ValueError(f"source vertex {a} out of range")
        if not 0 <= b < B.n:
            raise ValueError(f"image vertex {b} out of range")
    items = p.pairs
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (u, pu), (v, pv) = items[i], items[j]
            if A.colours[u, v] != B.colours[pu, pv]:
                raise ValueError(
                    f"map is not colour-preserving on ({u}, {v}): "
                    f"{int(A.colours[u, v])} vs {int(B.colours[pu, pv])}"
                )


def extend_iso(A: ColouredGraph, B: ColouredGraph, p: PartialIso, v: int) -> PartialIso:
    """One back-and-forth step: extend p by v -> w where w witnesses the
    colours of v's edges into the domain of p."""
    validate_partial_iso(A, B, p)
    if not 0 <= v < A.n:
        raise ValueError(f"vertex {v} out of range")
    mapping = p.as_dict()
    if v in mapping:
        raise ValueError(f"vertex {v} already mapped")
    w = find_witness(B, (list(mapping.values()), A.colours[list(mapping), v]))
    if w is None:
        raise WitnessMissingError(
            f"no witness to extend the map by vertex {v}; saturate the target further"
        )
    return p.extended(v, w)


# -- the even-palette obstruction ------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    """No vertex permutation with a 2-cycle is colour-consistent with a
    fixed-point-free involution of an even palette: a permutation swapping a
    and b maps the edge {a, b} to itself, so a colour permutation consistent
    with it fixes that edge's colour, and such an involution fixes none."""

    m: int
    n: int
    passed: bool = True  # the argument decides every graph with an even palette

    def summary(self) -> str:
        return (
            f"2-cycle edge + fixed-point-free involution on n={self.n}, m={self.m}: "
            "a permutation swapping a and b keeps the colour of {a, b}, which a "
            "fixed-point-free colour involution moves; 0 consistent"
        )


def check_no_fpf_colour_involution(G: ColouredGraph) -> ObstructionReport:
    """The obstruction on G by ObstructionReport's argument, at any size."""
    if G.m % 2 != 0:
        raise ValueError("the obstruction concerns even palette sizes only")
    return ObstructionReport(m=G.m, n=G.n)
