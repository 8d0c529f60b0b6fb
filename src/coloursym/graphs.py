"""Finite complete graphs with every edge coloured from {1..m}.

Vertices are 0-based integers; colours are 1-based. Colours live in a
dense symmetric matrix with a zero diagonal, so lookups are O(1) and the
consistency checks below vectorise over whole graphs.

The module covers three things: random generation and recolouring, the
witness/extension machinery (find_witness, saturate, embed, extend_iso)
that makes finite graphs behave like the generic coloured graph up to a
chosen query size, and the exhaustive checker showing that no vertex
permutation with a 2-cycle can induce a fixed-point-free involution of
the colours.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .perms import (
    Perm,
    _is_int,
    apply,
    cycle_type,
    cycles,
    enumerate_sym,
    fixed_points,
    is_involution,
)

OBSTRUCTION_GUARD = 7  # n! vertex permutations are enumerated; 7! is the ceiling
ROW_BLOCK_ENTRIES = 1 << 20  # whole-matrix scans work on row blocks of about this size
MAX_PALETTE = int(np.iinfo(np.int32).max)  # colours are stored as int32
MAX_VERTICES = 1 << 14  # a 1 GiB int32 matrix; complement --m 7 needs 10080


class WitnessMissingError(RuntimeError):
    """A witness query had no solution; the target graph is not saturated enough."""


@dataclass(frozen=True, eq=False)
class ColouredGraph:
    """Complete graph on n vertices, unordered pairs coloured from 1..m."""

    m: int
    n: int
    colours: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("palette size must be at least 1")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        C = np.array(self.colours, dtype=np.int32, copy=True)
        if C.shape != (self.n, self.n):
            raise ValueError(f"colour matrix must be {self.n}x{self.n}, got {C.shape}")
        if self.n:
            if np.diagonal(C).any():
                raise ValueError("diagonal must be zero (no self-pairs)")
            if not np.array_equal(C, C.T):
                raise ValueError("colour matrix must be symmetric")
            # with a zero diagonal, off-diagonal colours lie in 1..m exactly
            # when none is negative, none exceeds m and none is zero
            if C.min() < 0 or C.max() > self.m or np.count_nonzero(C) != self.n * (self.n - 1):
                raise ValueError(f"colours must lie in 1..{self.m}")
        C.flags.writeable = False
        object.__setattr__(self, "colours", C)

    def colour_of(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("pairs are unordered pairs of distinct vertices")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range 0..{self.n - 1}")
        return int(self.colours[u, v])

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """All (u, v, colour) with u < v."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield u, v, int(self.colours[u, v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColouredGraph):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and np.array_equal(self.colours, other.colours)
        )

    def __repr__(self) -> str:
        return f"ColouredGraph(m={self.m}, n={self.n})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        u, v = np.triu_indices(self.n, k=1)  # row-major, the order of pairs()
        return {
            "m": self.m,
            "n": self.n,
            "colours": np.stack([u, v, self.colours[u, v]], axis=1).tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

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
        return cls.from_json_dict(json.loads(text))

    def to_dot(self) -> str:
        lines = ["graph coloured {"]
        for v in range(self.n):
            lines.append(f"  {v};")
        for u, v, c in self.pairs():
            lines.append(f"  {u} -- {v} [color_index={c}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def graph_from_edges(m: int, n: int, entries: Iterable[Sequence[int]]) -> ColouredGraph:
    """Build a graph from [u, v, c] triples; every pair exactly once. The
    triples are counted before the n x n matrix is allocated, so a huge n
    costs nothing unless that many triples were actually given."""
    entries = list(entries)
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 1 <= m <= MAX_PALETTE:
        raise ValueError(f"palette size must be in 1..{MAX_PALETTE}")
    expected = n * (n - 1) // 2
    if len(entries) != expected:
        raise ValueError(f"expected {expected} pairs, got {len(entries)}")
    C = np.zeros((n, n), dtype=np.int32)
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
    return ColouredGraph(m=m, n=n, colours=C)


def check_vertex_count(n: int) -> None:
    """Refuse n before anything sized by it is drawn or allocated."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def random_graph(n: int, m: int, seed: int) -> ColouredGraph:
    """Graph on n vertices with pair colours drawn independently and
    uniformly from 1..m by a deterministic seeded generator."""
    if m < 2:
        raise ValueError("palette size must be at least 2")
    check_vertex_count(n)
    rng = random.Random(f"random-graph:{seed}")
    C = np.zeros((n, n), dtype=np.int32)
    for u in range(n):
        for v in range(u + 1, n):
            C[u, v] = C[v, u] = rng.randrange(m) + 1
    return ColouredGraph(m=m, n=n, colours=C)


def recolour(G: ColouredGraph, pi: Perm) -> ColouredGraph:
    """Apply the colour permutation pi to every pair colour."""
    if len(pi) != G.m:
        raise ValueError(f"colour permutation degree {len(pi)} != palette {G.m}")
    return ColouredGraph(m=G.m, n=G.n, colours=colour_lookup(pi)[G.colours])


def colour_lookup(perms: Perm | Sequence[Perm]) -> np.ndarray:
    """Colour permutations as lookup tables indexed by colour: [..., c] is
    the image of c, and column 0 maps the diagonal's 0 to itself. Takes one
    permutation or a sequence of them."""
    table = np.asarray(perms, dtype=np.int32)
    return np.pad(table, [(0, 0)] * (table.ndim - 1) + [(1, 0)])


def is_colour_consistent(G: ColouredGraph, s: Perm, pi: Perm) -> bool:
    """Whether the vertex permutation s carries every pair colour to its
    image under pi: colour(s(u), s(v)) == pi(colour(u, v)) for all u != v."""
    if len(s) != G.n:
        raise ValueError(f"vertex permutation degree {len(s)} != vertex count {G.n}")
    if len(pi) != G.m:
        raise ValueError(f"colour permutation degree {len(pi)} != palette {G.m}")
    if G.n == 0:
        return True
    sv = np.asarray(s, dtype=np.int64) - 1  # 0-based vertex images
    table = colour_lookup(pi)
    C = G.colours
    rows = max(1, ROW_BLOCK_ENTRIES // G.n)
    return all(
        np.array_equal(C[sv[start : start + rows]][:, sv], table[C[start : start + rows]])
        for start in range(0, G.n, rows)
    )


# -- witness queries -------------------------------------------------------


class WitnessQuery:
    """Pairwise disjoint vertex sets U_1..U_m; a witness is a vertex outside
    all of them joined by colour i to every vertex of U_i."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Iterable[int]]):
        frozen = tuple(frozenset(int(v) for v in part) for part in parts)
        total = sum(len(p) for p in frozen)
        union: set[int] = set()
        for part in frozen:
            for v in part:
                if v < 0:
                    raise ValueError("vertices must be nonnegative")
            union |= part
        if len(union) != total:
            raise ValueError("query parts must be pairwise disjoint")
        self.parts = frozen

    @property
    def total_size(self) -> int:
        return sum(len(p) for p in self.parts)

    def vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for part in self.parts:
            out |= part
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WitnessQuery) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        shown = {i: sorted(p) for i, p in enumerate(self.parts, 1) if p}
        return f"WitnessQuery({shown})"


def witness_queries(n: int, m: int, max_total: int) -> Iterator[WitnessQuery]:
    """All queries over vertices 0..n-1 with total part size <= max_total,
    in a fixed order: by total size, then chosen vertices, then colours."""
    for size in range(max_total + 1):
        for verts in itertools.combinations(range(n), size):
            for assignment in itertools.product(range(1, m + 1), repeat=size):
                parts: list[set[int]] = [set() for _ in range(m)]
                for v, c in zip(verts, assignment):
                    parts[c - 1].add(v)
                yield WitnessQuery(parts)


def _witness_in_matrix(C: np.ndarray, n: int, parts: tuple[frozenset[int], ...]) -> Optional[int]:
    if n == 0:
        return None
    ok = np.ones(n, dtype=bool)
    for colour, part in enumerate(parts, 1):
        for u in part:
            ok &= C[:n, u] == colour
    for part in parts:
        for u in part:
            ok[u] = False
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


def _check_query(G: ColouredGraph, q: WitnessQuery) -> None:
    if len(q.parts) != G.m:
        raise ValueError(f"query has {len(q.parts)} parts, palette is {G.m}")
    for v in q.vertices():
        if v >= G.n:
            raise ValueError(f"query vertex {v} out of range 0..{G.n - 1}")


def find_witness(G: ColouredGraph, q: WitnessQuery) -> Optional[int]:
    """Smallest vertex outside all parts joined by colour i to all of U_i,
    or None if no such vertex exists."""
    _check_query(G, q)
    return _witness_in_matrix(G.colours, G.n, q.parts)


def saturate(
    G: ColouredGraph, k: int, seed: int, rounds: int = 8
) -> tuple[ColouredGraph, bool]:
    """Append witnesses until every query of total size <= k has one.

    Each sweep enumerates all queries over the vertex set as it stood when
    the sweep began; an unsatisfied query gets a fresh vertex whose edges
    to the parts are forced (colour i to U_i) and whose remaining edges are
    seeded-random. Stops after a sweep that adds nothing (achieved=True).
    After `rounds` sweeps that all added vertices, one more sweep decides
    achieved without adding any. Deterministic given the seed.
    """
    if k < 1:
        raise ValueError("witness size must be at least 1")
    if rounds < 1:
        raise ValueError("at least one sweep is required")
    rng = random.Random(f"saturate:{seed}")
    m = G.m
    cap = max(16, 2 * G.n)
    buf = np.zeros((cap, cap), dtype=np.int32)
    buf[: G.n, : G.n] = G.colours
    n = G.n
    for sweep in range(rounds + 1):
        achieved = True
        for q in witness_queries(n, m, k):
            if _witness_in_matrix(buf, n, q.parts) is not None:
                continue
            achieved = False
            if sweep == rounds:  # the deciding sweep adds nothing
                break
            if n == cap:
                cap *= 2
                bigger = np.zeros((cap, cap), dtype=np.int32)
                bigger[:n, :n] = buf[:n, :n]
                buf = bigger
            forced = {u: i for i, part in enumerate(q.parts, 1) for u in part}
            v = n
            for u in range(v):
                c = forced.get(u)
                if c is None:
                    c = rng.randrange(m) + 1
                buf[u, v] = buf[v, u] = c
            n += 1
        if achieved:
            break
    if n == G.n:
        return G, achieved
    return ColouredGraph(m=m, n=n, colours=buf[:n, :n].copy()), achieved


def embed(H: ColouredGraph, G: ColouredGraph) -> tuple[int, ...]:
    """Colour-preserving injection of H's vertices into G, built greedily:
    vertex v of H goes to the witness for the colours of its edges back to
    the already-placed vertices. Raises WitnessMissingError if G is not
    saturated enough."""
    if H.m != G.m:
        raise ValueError("palette sizes differ")
    images: list[int] = []
    for v in range(H.n):
        parts = [
            {images[u] for u in range(v) if H.colours[u, v] == i}
            for i in range(1, H.m + 1)
        ]
        w = find_witness(G, WitnessQuery(parts))
        if w is None:
            raise WitnessMissingError(
                f"no witness while placing vertex {v}; saturate the target further"
            )
        images.append(w)
    return tuple(images)


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
    parts = [
        {mapping[u] for u in mapping if A.colours[u, v] == i}
        for i in range(1, A.m + 1)
    ]
    w = find_witness(B, WitnessQuery(parts))
    if w is None:
        raise WitnessMissingError(
            f"no witness to extend the map by vertex {v}; saturate the target further"
        )
    return p.extended(v, w)


# -- the even-palette obstruction ------------------------------------------


@dataclass(frozen=True)
class ObstructionCitation:
    """Why one (vertex perm, colour involution) pair fails: s fixes the edge
    {u, v} setwise, but pi moves its colour."""

    vertex_perm: Perm
    colour_perm: Perm
    edge: tuple[int, int]
    colour: int
    image_colour: int

    def to_json_dict(self) -> dict:
        return {
            "vertex_perm": list(self.vertex_perm),
            "colour_perm": list(self.colour_perm),
            "edge": list(self.edge),
            "colour": self.colour,
            "image_colour": self.image_colour,
        }


@dataclass(frozen=True)
class ObstructionReport:
    """Exhaustive evidence that no vertex permutation with a 2-cycle is
    colour-consistent with any fixed-point-free colour involution."""

    m: int
    n: int
    vertex_perm_count: int
    colour_involution_count: int
    pairs_checked: int
    consistent_pairs: tuple[tuple[Perm, Perm], ...]
    citations: tuple[ObstructionCitation, ...]

    @property
    def passed(self) -> bool:
        return not self.consistent_pairs

    def summary(self) -> str:
        return (
            f"{self.vertex_perm_count} vertex permutations with a 2-cycle x "
            f"{self.colour_involution_count} fixed-point-free colour involutions: "
            f"{self.pairs_checked} pairs checked, "
            f"{len(self.consistent_pairs)} consistent (expected 0)"
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "vertex_perm_count": self.vertex_perm_count,
            "colour_involution_count": self.colour_involution_count,
            "pairs_checked": self.pairs_checked,
            "consistent_pairs": [
                [list(s), list(pi)] for s, pi in self.consistent_pairs
            ],
            "citations": [c.to_json_dict() for c in self.citations],
            "passed": self.passed,
        }


def check_no_fpf_colour_involution(
    G: ColouredGraph, guard: int = OBSTRUCTION_GUARD
) -> ObstructionReport:
    """Exhaust all vertex permutations containing a 2-cycle against all
    fixed-point-free involutions of the colours; every pair must fail
    is_colour_consistent, and each failure is cited with a 2-cycle whose
    edge colour the colour involution moves."""
    if G.m % 2 != 0:
        raise ValueError("the obstruction concerns even palette sizes only")
    if G.n > guard:
        raise ValueError(f"vertex count {G.n} exceeds the exhaustion guard {guard}")
    fpf_involutions = [
        pi
        for pi in enumerate_sym(G.m)
        if is_involution(pi) and not fixed_points(pi)
    ]
    vertex_perms: list[Perm] = []
    if G.n >= 2:
        vertex_perms = [s for s in enumerate_sym(G.n) if 2 in cycle_type(s)]
    consistent: list[tuple[Perm, Perm]] = []
    citations: list[ObstructionCitation] = []
    for s in vertex_perms:
        two_cycles = [c for c in cycles(s) if len(c) == 2]
        for pi in fpf_involutions:
            if is_colour_consistent(G, s, pi):
                consistent.append((s, pi))
                continue
            for a, b in two_cycles:
                u, v = a - 1, b - 1
                c = int(G.colours[u, v])
                image = apply(pi, c)
                if image != c:
                    citations.append(
                        ObstructionCitation(s, pi, (u, v), c, image)
                    )
                    break
    return ObstructionReport(
        m=G.m,
        n=G.n,
        vertex_perm_count=len(vertex_perms),
        colour_involution_count=len(fpf_involutions),
        pairs_checked=len(vertex_perms) * len(fpf_involutions),
        consistent_pairs=tuple(consistent),
        citations=tuple(citations),
    )
