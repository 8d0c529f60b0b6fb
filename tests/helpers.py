"""Shared test fixtures and oracles."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from coloursym.equivariant import (
    FiniteGroup,
    OrbitGraphSpec,
    action_vertex_perm,
    assemble_orbit_graph,
    group_from_perms,
)
from coloursym.graphs import (
    MAX_VERTICES,
    ColouredGraph,
    PartialIso,
    Query,
    check_query,
    check_vertex_count,
    colour_lookup,
    extend_iso,
    graph_from_edges,
    is_colour_consistent,
    missing_queries,
)
from coloursym.perms import (
    Perm,
    apply,
    compose,
    cycle_type,
    cycles,
    enumerate_sym,
    fixed_points,
    identity,
    is_involution,
    is_perm,
)
from coloursym.spin import CoverKind, PinElement, SpinCover, pin_mul, pin_neg


def bad_queries(n: int, m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Witness queries that every query check over n >= 2 vertices and m
    colours must refuse, one fault each."""
    return [
        ((n,), (1,)),  # vertex beyond n - 1
        ((-1,), (1,)),  # negative vertex
        ((0, 0), (1, 2)),  # duplicate vertex
        ((0,), (0,)),  # colour 0
        ((0,), (m + 1,)),  # colour m + 1
        ((0, 1), (1,)),  # more vertices than colours
        ((0,), (1, 1)),  # more colours than vertices
    ]


def random_graph_by_pairs(n: int, m: int, seed: int) -> ColouredGraph:
    """random_graph one pair at a time: rng.randrange(m) + 1 for each pair
    u < v in row-major order."""
    rng = random.Random(f"random-graph:{seed}")
    C = np.zeros((n, n), dtype=np.int32)
    for u in range(n):
        for v in range(u + 1, n):
            C[u, v] = C[v, u] = rng.randrange(m) + 1
    return ColouredGraph(m=m, n=n, colours=C)


def saturate_by_full_sweeps(
    G: ColouredGraph, k: int, seed: int, rounds: int = 8
) -> tuple[ColouredGraph, bool]:
    """saturate with every sweep reading every query, and each new vertex's
    colours written one pair at a time."""
    rng = random.Random(f"saturate:{seed}")
    for sweep in range(rounds + 1):
        missing = missing_queries(G, k)
        if not missing or sweep == rounds:
            break
        n = v = G.n
        D = np.pad(G.colours, (0, min(len(missing), max(1, MAX_VERTICES - n))))
        for verts, colours in missing:
            if np.all(D[n:v, list(verts)] == colours, axis=1).any():
                continue
            check_vertex_count(v + 1)
            forced = dict(zip(verts, colours))
            for u in range(v):
                D[u, v] = D[v, u] = forced.get(u) or rng.randrange(G.m) + 1
            v += 1
        G = ColouredGraph(m=G.m, n=v, colours=D[:v, :v])
    return G, not missing


# -- graphs, read pair by pair ------------------------------------------------


def colour_of(G: ColouredGraph, u: int, v: int) -> int:
    """The colour of the pair {u, v} of distinct vertices."""
    if u == v:
        raise ValueError("pairs are unordered pairs of distinct vertices")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError(f"vertex out of range 0..{G.n - 1}")
    return int(G.colours[u, v])


def graph_pairs(G: ColouredGraph) -> Iterator[tuple[int, int, int]]:
    """All (u, v, colour) with u < v."""
    for u in range(G.n):
        for v in range(u + 1, G.n):
            yield u, v, int(G.colours[u, v])


def to_dot(G: ColouredGraph) -> str:
    """The DOT text that `gen-random --dot` writes."""
    return "".join(G.dot_chunks())


def dot_by_pairs(G: ColouredGraph) -> str:
    """to_dot() one line at a time from graph_pairs()."""
    lines = ["graph coloured {"]
    lines += [f"  {v};" for v in range(G.n)]
    lines += [f"  {u} -- {v} [color_index={c}];" for u, v, c in graph_pairs(G)]
    return "\n".join(lines + ["}"]) + "\n"


def recolour(G: ColouredGraph, pi: Perm) -> ColouredGraph:
    """Apply the colour permutation pi to every pair colour."""
    if len(pi) != G.m:
        raise ValueError(f"colour permutation degree {len(pi)} != palette {G.m}")
    return ColouredGraph(m=G.m, n=G.n, colours=colour_lookup(pi)[G.colours])


def sym_group(m: int) -> FiniteGroup:
    return group_from_perms(enumerate_sym(m))


def trivial_group(m: int) -> FiniteGroup:
    return group_from_perms([identity(m)])


def add_witness_orbit(spec: OrbitGraphSpec, q: Query) -> OrbitGraphSpec:
    """Append one orbit whose identity vertex witnesses the query
    q = (vertices, colours): its colour to vertices[i] is forced to
    colours[i], all other new cross colours are seeded-random. Colours
    between pre-existing vertices are untouched."""
    G = spec.group
    size = G.size
    N = spec.orbit_count
    check_vertex_count((N + 1) * size)
    verts, colours = check_query(q, spec.vertex_count, G.m)
    forced = {divmod(v, size): int(c) for v, c in zip(verts, colours)}
    rng = random.Random(f"orbit-spec:{spec.seed}:{N}")
    inter = dict(spec.inter)
    for j in range(N):
        inter[(j, N)] = tuple(
            forced.get((j, x)) or rng.randrange(G.m) + 1 for x in range(size)
        )
    return OrbitGraphSpec(
        colouring=spec.colouring, orbit_count=N + 1, inter=inter, seed=spec.seed
    )


def back_and_forth(
    A: ColouredGraph, B: ColouredGraph, p: PartialIso, size: int
) -> PartialIso:
    """Alternate forward and backward extension steps until |p| == size,
    always picking the smallest unmapped vertex on the active side."""
    while len(p) < size:
        if len(p) % 2 == 1:
            v = min(set(range(A.n)) - p.sources())
            p = extend_iso(A, B, p, v)
        else:
            w = min(set(range(B.n)) - p.images())
            p = extend_iso(B, A, p.inverse(), w).inverse()
    return p


def all_two_colourings(n: int):
    """Every complete graph on n vertices with colours from {1, 2}."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in itertools.product((1, 2), repeat=len(pairs)):
        yield graph_from_edges(2, n, [[u, v, c] for (u, v), c in zip(pairs, bits)])


# -- all-element oracles for the generator-based proofs -----------------------


def inconsistent_elements(
    spec: OrbitGraphSpec, graph: Optional[ColouredGraph] = None
) -> tuple[int, ...]:
    """Every group element, one by one: the labels whose right
    multiplication is not colour-consistent with phi on the graph (the
    assembled one unless another is given)."""
    if graph is None:
        graph = assemble_orbit_graph(spec)
    G = spec.group
    return tuple(
        g
        for g in range(G.size)
        if not is_colour_consistent(graph, action_vertex_perm(spec, g), G.phi[g])
    )


def associative_on_all_triples(mul: np.ndarray) -> bool:
    """(g*h)*k == g*(h*k) for every triple of a table, one row of g at a time."""
    MUL = np.asarray(mul)
    return all(np.array_equal(MUL[MUL[g, :], :], MUL[g][MUL]) for g in range(len(MUL)))


def table_from_all_products(elements, product=compose) -> np.ndarray:
    """The multiplication table of a closed list of elements, one product
    at a time: entry [i, j] is the index of product(elements[i], elements[j])."""
    index = {x: i for i, x in enumerate(elements)}
    return np.array([[index[product(x, y)] for y in elements] for x in elements])


def phi_homomorphic_on_all_pairs(mul: np.ndarray, phi) -> bool:
    """phi(g*h) == phi(g) followed by phi(h) for every pair of labels."""
    size = len(phi)
    return all(
        phi[int(mul[g][h])] == compose(phi[g], phi[h]) for g in range(size) for h in range(size)
    )


@dataclass(frozen=True)
class ObstructionCitation:
    """Why one (vertex perm, colour involution) pair fails: s fixes the edge
    {u, v} setwise, but pi moves its colour."""

    vertex_perm: Perm
    colour_perm: Perm
    edge: tuple[int, int]
    colour: int
    image_colour: int


@dataclass(frozen=True)
class PairChecks:
    """Every vertex permutation with a 2-cycle against every fixed-point-free
    colour involution, each pair checked in full."""

    vertex_perm_count: int
    colour_involution_count: int
    pairs_checked: int
    consistent_pairs: tuple[tuple[Perm, Perm], ...]
    citations: tuple[ObstructionCitation, ...]


def obstruction_by_full_checks(G: ColouredGraph) -> PairChecks:
    """What check_no_fpf_colour_involution decides by its argument, checked
    pair by pair: a full is_colour_consistent run on every pair, each
    inconsistent pair cited by the first 2-cycle whose edge colour the
    colour involution moves."""
    fpf_involutions = [
        pi for pi in enumerate_sym(G.m) if is_involution(pi) and not fixed_points(pi)
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
                    citations.append(ObstructionCitation(s, pi, (u, v), c, image))
                    break
    return PairChecks(
        vertex_perm_count=len(vertex_perms),
        colour_involution_count=len(fpf_involutions),
        pairs_checked=len(vertex_perms) * len(fpf_involutions),
        consistent_pairs=tuple(consistent),
        citations=tuple(citations),
    )


# -- the Clifford algebra, read back ------------------------------------------


def basis_vector(i: int, m: int, kind: CoverKind) -> PinElement:
    """The generator e_i."""
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range 1..{m}")
    return PinElement(kind, m, 0, ((1 << (i - 1), 1),))


def signed_blade(x: PinElement) -> Optional[tuple[int, int]]:
    """(blade, n) when x is +1 or -1 times a single blade, else None."""
    if x.k == 0 and len(x.coeffs) == 1 and x.coeffs[0][1] in (1, -1):
        return x.coeffs[0]
    return None


def reversal(x: PinElement) -> PinElement:
    """Reverse the generator order inside every blade: a size-s blade picks
    up the sign (-1)^(s(s-1)/2), which is -1 exactly when s = 2, 3 (mod 4)."""
    return replace(
        x, coeffs=tuple((mask, -n if mask.bit_count() % 4 >= 2 else n) for mask, n in x.coeffs)
    )


def pin_inverse(x: PinElement) -> PinElement:
    """Inverse of a unit product of vectors, via x * reversal(x) = +-1."""
    rev = reversal(x)
    term = signed_blade(pin_mul(x, rev))
    if term is None or term[0] != 0:
        raise ValueError("element is not a unit product of vectors")
    return rev if term[1] == 1 else pin_neg(rev)


def project(x: PinElement) -> Perm:
    """The permutation induced on the generators by conjugation: the image
    of i is the j with x^-1 e_i x = +-e_j. Composing elements composes the
    projections in the package's left-to-right order."""
    inv_x = pin_inverse(x)
    images = []
    for i in range(1, x.m + 1):
        term = signed_blade(pin_mul(pin_mul(inv_x, basis_vector(i, x.m, x.kind)), x))
        if term is None or term[0].bit_count() != 1:
            raise ValueError("conjugate of a generator is not a signed generator")
        images.append(term[0].bit_length())
    p = tuple(images)
    if not is_perm(p):
        raise ValueError("conjugation does not permute the generators")
    return p


def cover_index(cover: SpinCover) -> dict[PinElement, int]:
    """The label of every element of an enumerated cover."""
    return {x: g for g, x in enumerate(cover.elements)}
