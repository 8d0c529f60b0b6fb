"""Finite groups acting on a colour palette and the orbit graphs they build.

A FiniteGroup is a multiplication table over labels 0..size-1 (label 0 is
the identity) together with a homomorphism phi into the permutations of
{1..m}, the colour action. A PairColouring stores one colour per
nonidentity element, the colour of the pair (identity, y); colours of all
other pairs follow from translation equivariance, so the group acting on
itself by right multiplication permutes pair colours exactly as phi
permutes the palette. Stacking several copies of the group (orbits) and
colouring cross-orbit edges compatibly yields a complete coloured graph
on which the whole group acts colour-consistently.

When some involution's colour action is fixed-point-free no base colour
for it can exist; build_pair_colouring surfaces that as the dedicated
FixedPointFreeInvolution error. For an odd palette the symmetric group
itself never triggers it, which is what sym_complement packages up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graphs import (
    ROW_BLOCK_ENTRIES,
    ColouredGraph,
    check_vertex_count,
    colour_lookup,
    is_colour_consistent,
)
from .perms import (
    Perm,
    _is_int,
    apply,
    compose,
    cycle_string,
    enumerate_sym,
    fixed_points,
    identity,
    is_perm,
)

SYM_GROUP_MAX_M = 7  # Sym(7) has a 5040 x 5040 int32 table, about 100 MB


class FixedPointFreeInvolution(Exception):
    """An involution whose colour action fixes no colour; no equivariant
    pair colouring can assign the pair (identity, s) a colour."""

    def __init__(self, element: int, colour_perm: Perm):
        self.element = element
        self.colour_perm = colour_perm
        super().__init__(
            f"involution {element} acts on the colours as "
            f"{cycle_string(colour_perm)} with no fixed colour"
        )


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group as a multiplication table plus a colour action.

    mul[g, h] is the label of g*h; label 0 is the identity; phi[g] is the
    permutation of {1..m} induced by g. Only mul and phi are given; size,
    m, the inverses, the colour lookup table and a generating set are
    derived from them. Construction is the proof: it raises ValueError
    unless mul is a group table and phi a homomorphism into Sym(m) under
    the package's right-action composition.
    """

    mul: np.ndarray = field(repr=False)
    phi: tuple[Perm, ...] = field(repr=False)
    size: int = field(init=False)
    m: int = field(init=False)
    inv: np.ndarray = field(init=False, repr=False)
    phi_table: np.ndarray = field(init=False, repr=False)  # [g, c] = phi(g)(c), [g, 0] = 0
    gens: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mul = np.asarray(self.mul)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or not mul.size:
            raise ValueError("the multiplication table must be a nonempty square")
        size = len(mul)
        if mul.dtype.kind not in "iu" or mul.min() < 0 or mul.max() >= size:
            raise ValueError("table entries must be element labels")
        mul = mul.astype(np.int32)
        labels = np.arange(size)
        if not np.array_equal(mul[0], labels) or not np.array_equal(mul[:, 0], labels):
            raise ValueError("label 0 must be the identity")
        rows, inv = np.nonzero(mul == 0)
        if not np.array_equal(rows, labels):
            raise ValueError("each row must contain the identity exactly once")
        phi = tuple(tuple(p) for p in self.phi)
        if len(phi) != size:
            raise ValueError("phi must assign a colour permutation to every element")
        m = len(phi[0])
        for g, p in enumerate(phi):
            if len(p) != m or not is_perm(p):
                raise ValueError(f"phi[{g}] is not a permutation of 1..{m}")
        if phi[0] != identity(m):
            raise ValueError("the identity must act trivially on colours")
        phi_table = colour_lookup(phi)
        gens = generators(mul)
        if not is_associative(mul, gens):
            raise ValueError("the multiplication table is not associative")
        if not is_phi_homomorphism(mul, phi_table, gens):
            raise ValueError("phi is not a homomorphism")
        inv = inv.astype(np.int32)
        for table in (mul, inv, phi_table):
            table.flags.writeable = False
        for name, value in dict(
            mul=mul, phi=phi, size=size, m=m, inv=inv, phi_table=phi_table, gens=gens
        ).items():
            object.__setattr__(self, name, value)

    def product(self, g: int, h: int) -> int:
        return int(self.mul[g, h])

    def inverse_of(self, g: int) -> int:
        return int(self.inv[g])

    def involutions(self) -> tuple[int, ...]:
        return tuple(g for g in range(1, self.size) if int(self.mul[g, g]) == 0)

    def kernel(self) -> tuple[int, ...]:
        """Labels acting trivially on the colours."""
        ident = identity(self.m)
        return tuple(g for g in range(self.size) if self.phi[g] == ident)

    def __repr__(self) -> str:
        return f"FiniteGroup(size={self.size}, m={self.m})"

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "m": self.m,
            "mul": self.mul.tolist(),
            "phi": [list(p) for p in self.phi],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "FiniteGroup":
        """Load what to_json_dict writes; size and m must agree with the
        values derived from mul and phi."""
        if not isinstance(data, dict) or set(data) != {"size", "m", "mul", "phi"}:
            raise ValueError("group JSON must be an object with keys size, m, mul, phi")
        if not _int_rows(data["mul"]) or not _int_rows(data["phi"]):
            raise ValueError("mul and phi must be lists of integer lists")
        group = cls(mul=data["mul"], phi=data["phi"])
        size, m = data["size"], data["m"]
        if not (_is_int(size) and _is_int(m) and (size, m) == (group.size, group.m)):
            raise ValueError(f"size and m must be {group.size} and {group.m}")
        return group


def _int_rows(value: object) -> bool:
    """Whether a JSON value is a list of lists of integers."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in value
    )


def cayley_table(
    right: Sequence[Sequence[int]], steps: Sequence[tuple[int, int, int]]
) -> np.ndarray:
    """Group table from generator columns, right[g][x] = x*g. Each step
    (y, p, g) says y = p*g with p = 0 or filled by an earlier step; one step
    per nonidentity label. Column y is right[g] read at column p, since
    x*y = (x*p)*g."""
    size = len(steps) + 1
    columns = [np.asarray(col, dtype=np.int32) for col in right]
    mul = np.empty((size, size), dtype=np.int32)
    mul[:, 0] = np.arange(size)
    for y, p, g in steps:
        mul[:, y] = columns[g][mul[:, p]]
    return mul


def group_from_perms(perms: Iterable[Perm]) -> FiniteGroup:
    """Turn a set of colour permutations closed under composition and
    containing the identity (a finite such set is a group) into a
    FiniteGroup whose colour action is the tautological one. Labels: the
    identity, then the rest sorted. Closure is proven by generators (picked
    as in `generators`) that reach every label and map the set into itself."""
    elems = {tuple(int(x) for x in p) for p in perms}
    if not elems:
        raise ValueError("at least the identity permutation is required")
    degrees = {len(p) for p in elems}
    if len(degrees) != 1:
        raise ValueError("permutations have mixed degrees")
    m = degrees.pop()
    for p in elems:
        if not is_perm(p):
            raise ValueError(f"not a permutation: {p!r}")
    ident = identity(m)
    if ident not in elems:
        raise ValueError("the identity permutation is missing")
    ordering = [ident] + sorted(elems - {ident})
    index = {p: i for i, p in enumerate(ordering)}
    reached = [True] + [False] * (len(ordering) - 1)
    right: list[list[int]] = []
    steps: list[tuple[int, int, int]] = []
    while not all(reached):
        h = ordering[reached.index(False)]
        column = [index.get(compose(p, h)) for p in ordering]
        if None in column:
            p = ordering[column.index(None)]
            raise ValueError(
                f"set is not closed under composition: {cycle_string(p)} * {cycle_string(h)}"
            )
        right.append(column)
        queue = [x for x, seen in enumerate(reached) if seen]
        for x in queue:  # breadth first; the loop also visits what it appends
            for g, col in enumerate(right):
                y = col[x]
                if not reached[y]:
                    reached[y] = True
                    steps.append((y, x, g))
                    queue.append(y)
    return FiniteGroup(mul=cayley_table(right, steps), phi=tuple(ordering))


def trivial_group(m: int) -> FiniteGroup:
    return group_from_perms([identity(m)])


def symmetric_group(m: int) -> FiniteGroup:
    """Sym(m) acting on the colours by itself. The table has (m!)^2
    entries, so m is capped before anything is built."""
    if not 1 <= m <= SYM_GROUP_MAX_M:
        raise ValueError(f"m must be in 1..{SYM_GROUP_MAX_M} to build Sym(m)")
    return group_from_perms(enumerate_sym(m))


def generators(mul: np.ndarray) -> tuple[int, ...]:
    """Greedy generating set of a table: repeatedly adjoin the smallest label
    outside the subgroup generated so far. In a group each new generator at
    least doubles that subgroup, so there are at most log2 |G| of them.

    The subgroup grows by right multiplication from the identity, so every
    label is reached as a left-nested product of generators whether or not
    the table is associative; Light's test relies on exactly that."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            images = np.unique(mul[np.ix_(frontier, gens)])
            frontier = images[~reached[images]]
            reached[frontier] = True
    return tuple(gens)


def is_associative(mul: np.ndarray, gens: tuple[int, ...]) -> bool:
    """Light's test: (x*a)*y == x*(a*y) for every generator a and all x, y.
    The elements a passing it are closed under products, and every label is
    a product of the generators, so this proves the whole table associative.
    Row blocks keep the temporaries far below size^2 entries."""
    size = len(mul)
    rows = max(1, ROW_BLOCK_ENTRIES // size)
    for a in gens:
        a_times = mul[a]
        for start in range(0, size, rows):
            block = mul[start : start + rows]
            if not np.array_equal(mul[block[:, a]], block[:, a_times]):
                return False
    return True


def is_phi_homomorphism(
    mul: np.ndarray, phi_table: np.ndarray, gens: tuple[int, ...]
) -> bool:
    """phi(x*a) == phi(x) followed by phi(a) for every generator a and all
    x, on the colour lookup table of phi (see colour_lookup). Over an
    associative table this extends to every product."""
    return all(np.array_equal(phi_table[mul[:, a]], phi_table[a][phi_table]) for a in gens)


@dataclass(frozen=True, eq=False)
class PairColouring:
    """Colours of the pairs (identity, y), one per nonidentity y; the rest
    of the pair colouring follows by translation."""

    group: FiniteGroup
    base: tuple[int, ...]  # indexed by element label; entry 0 is unused

    def __post_init__(self) -> None:
        if len(self.base) != self.group.size:
            raise ValueError("one base colour per group element is required")
        object.__setattr__(self, "base", tuple(int(c) for c in self.base))

    def validate(self) -> None:
        """Check the compatibility constraint base[y^-1] == phi(y^-1)(base[y])
        for every nonidentity y (for involutions this forces a fixed colour)."""
        G = self.group
        for y in range(1, G.size):
            c = self.base[y]
            if not 1 <= c <= G.m:
                raise ValueError(f"base colour of element {y} out of range")
            yi = G.inverse_of(y)
            expected = apply(G.phi[yi], c)
            if self.base[yi] != expected:
                raise ValueError(
                    f"base colours of {y} and its inverse {yi} are incompatible"
                )


def build_pair_colouring(G: FiniteGroup, seed: int) -> PairColouring:
    """Draw base colours uniformly (seeded) subject to the compatibility
    constraint; an involution draws among the fixed colours of its action
    and raises FixedPointFreeInvolution when there are none."""
    rng = random.Random(f"pair-colouring:{seed}")
    base = [0] * G.size
    for y in range(1, G.size):
        if base[y]:
            continue
        yi = G.inverse_of(y)
        if yi == y:
            fixed = sorted(fixed_points(G.phi[y]))
            if not fixed:
                raise FixedPointFreeInvolution(y, G.phi[y])
            base[y] = rng.choice(fixed)
        else:
            c = rng.randrange(G.m) + 1
            base[y] = c
            base[yi] = apply(G.phi[yi], c)
    return PairColouring(group=G, base=tuple(base))


def pair_colour(f: PairColouring, x: int, y: int) -> int:
    """Colour of the pair {x, y}: translate to (identity, y*x^-1), look up
    the base colour, push it through phi(x)."""
    if x == y:
        raise ValueError("pairs consist of distinct elements")
    G = f.group
    return apply(G.phi[x], f.base[G.product(y, G.inverse_of(x))])


def pair_colour_matrix(f: PairColouring) -> np.ndarray:
    """All pair colours at once: entry [x, y] is pair_colour(f, x, y), with
    a zero diagonal."""
    G = f.group
    size = G.size
    base = np.asarray(f.base, dtype=np.int32)
    idx = G.mul[np.ix_(np.arange(size), G.inv)].T  # [x, y] = y * x^-1
    return G.phi_table[np.arange(size)[:, None], base[idx]]


@dataclass(frozen=True, eq=False)
class OrbitGraphSpec:
    """Recipe for a complete coloured graph on orbit_count copies of the
    group: inside each orbit the pair colouring, between orbits i < j the
    map inter[(i, j)] giving the colour of {x in orbit i, identity in
    orbit j} for every x."""

    colouring: PairColouring
    orbit_count: int
    inter: Mapping[tuple[int, int], tuple[int, ...]]
    seed: int

    def __post_init__(self) -> None:
        if self.orbit_count < 1:
            raise ValueError("at least one orbit is required")
        size = self.group.size
        fixed: dict[tuple[int, int], tuple[int, ...]] = {}
        for (i, j), values in dict(self.inter).items():
            if not (0 <= i < j < self.orbit_count):
                raise ValueError(f"invalid orbit pair ({i}, {j})")
            values = tuple(int(c) for c in values)
            if len(values) != size:
                raise ValueError(f"inter map ({i}, {j}) must cover the group")
            if any(not 1 <= c <= self.group.m for c in values):
                raise ValueError(f"inter map ({i}, {j}) has out-of-range colours")
            fixed[(i, j)] = values
        expected = self.orbit_count * (self.orbit_count - 1) // 2
        if len(fixed) != expected:
            raise ValueError(f"expected {expected} inter maps, got {len(fixed)}")
        object.__setattr__(self, "inter", fixed)

    @property
    def group(self) -> FiniteGroup:
        return self.colouring.group

    @property
    def vertex_count(self) -> int:
        return self.orbit_count * self.group.size

    def vertex_label(self, v: int) -> tuple[int, int]:
        """Flat vertex id -> (orbit, element)."""
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range")
        return divmod(v, self.group.size)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.to_json_dict(),
            "base": {str(y): self.colouring.base[y] for y in range(1, self.group.size)},
            "N": self.orbit_count,
            "inter": {f"{i},{j}": list(v) for (i, j), v in sorted(self.inter.items())},
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "OrbitGraphSpec":
        """Load exactly what to_json_dict writes for a valid spec; anything
        else raises ValueError."""
        keys = {"group", "base", "N", "inter", "seed"}
        if not isinstance(data, dict) or set(data) != keys:
            raise ValueError(f"orbit-spec JSON must be an object with keys {sorted(keys)}")
        group = FiniteGroup.from_json_dict(data["group"])
        base, N, inter, seed = data["base"], data["N"], data["inter"], data["seed"]
        if not _is_int(N) or N < 1 or not _is_int(seed):
            raise ValueError("N must be a positive integer and seed an integer")
        labels = [str(y) for y in range(1, group.size)]
        if not (isinstance(base, dict) and set(base) == set(labels)) or not all(
            _is_int(c) for c in base.values()
        ):
            raise ValueError(f"base must give an integer colour to each of 1..{group.size - 1}")
        # count first: the expected key set is then no larger than the input
        if not isinstance(inter, dict) or len(inter) != N * (N - 1) // 2:
            raise ValueError(f"inter must hold {N * (N - 1) // 2} maps for N = {N}")
        pairs = {f"{i},{j}": (i, j) for i in range(N) for j in range(i + 1, N)}
        if set(inter) != set(pairs) or not _int_rows(list(inter.values())):
            raise ValueError(f'inter must map each "i,j" with i < j < {N} to integer colours')
        colouring = PairColouring(group=group, base=(0, *(base[y] for y in labels)))
        colouring.validate()
        return cls(
            colouring=colouring,
            orbit_count=N,
            inter={pairs[key]: tuple(values) for key, values in inter.items()},
            seed=seed,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OrbitGraphSpec":
        return cls.from_json_dict(json.loads(text))


def make_orbit_spec(
    G: FiniteGroup, f: PairColouring, orbit_count: int, seed: int
) -> OrbitGraphSpec:
    """Draw every cross-orbit base colour uniformly (seeded)."""
    if f.group is not G and f.group.to_json_dict() != G.to_json_dict():
        raise ValueError("pair colouring was built over a different group")
    check_vertex_count(orbit_count * G.size)
    rng = random.Random(f"orbit-spec:{seed}")
    inter = {
        (i, j): tuple(rng.randrange(G.m) + 1 for _ in range(G.size))
        for i in range(orbit_count)
        for j in range(i + 1, orbit_count)
    }
    return OrbitGraphSpec(colouring=f, orbit_count=orbit_count, inter=inter, seed=seed)


def assemble_orbit_graph(spec: OrbitGraphSpec) -> ColouredGraph:
    """Materialise the complete coloured graph: inside an orbit the pair
    colouring; for orbits i < j the colour of {y_i, z_j} is the image under
    phi(z) of the inter colour at y*z^-1."""
    G = spec.group
    size = G.size
    n = spec.vertex_count
    F = pair_colour_matrix(spec.colouring)
    C = np.zeros((n, n), dtype=np.int32)
    for i in range(spec.orbit_count):
        C[i * size : (i + 1) * size, i * size : (i + 1) * size] = F
    idx = G.mul[np.ix_(np.arange(size), G.inv)]  # [y, z] = y * z^-1
    cols = np.arange(size)[None, :]
    for (i, j), values in sorted(spec.inter.items()):
        b = np.asarray(values, dtype=np.int32)
        block = G.phi_table[cols, b[idx]]
        C[i * size : (i + 1) * size, j * size : (j + 1) * size] = block
        C[j * size : (j + 1) * size, i * size : (i + 1) * size] = block.T
    return ColouredGraph(m=G.m, n=n, colours=C)


def action_vertex_perm(spec: OrbitGraphSpec, g: int) -> Perm:
    """Right multiplication by g on every orbit, as a vertex permutation
    (1-based images over the flat vertex ids)."""
    G = spec.group
    size = G.size
    column = G.mul[:, g]
    images = np.empty(spec.vertex_count, dtype=np.int64)
    for i in range(spec.orbit_count):
        images[i * size : (i + 1) * size] = i * size + column
    return tuple(int(v) + 1 for v in images)


@dataclass(frozen=True)
class ColourGroupReport:
    """Outcome of proving that the installed group acts colour-consistently
    on the assembled graph, plus the kernel of the colour action.

    `argument` names the proof: the group's generators, listed in `checked`,
    pass the colour check unless listed in `inconsistent`; FiniteGroup has
    already proven the table associative and phi a homomorphism. `graph` is
    the graph that was checked."""

    group_size: int
    orbit_count: int
    vertex_count: int
    argument: str
    checked: tuple[int, ...]
    inconsistent: tuple[int, ...]
    kernel: tuple[int, ...]
    graph: ColouredGraph = field(repr=False, compare=False)

    @property
    def exhaustive(self) -> bool:
        """Always true: the argument covers every group element."""
        return True

    @property
    def all_consistent(self) -> bool:
        return not self.inconsistent

    @property
    def kernel_size(self) -> int:
        return len(self.kernel)

    @property
    def passed(self) -> bool:
        return self.all_consistent

    def summary(self) -> str:
        return (
            f"all {self.group_size} elements consistent on {self.vertex_count} "
            f"vertices by {self.argument} over {len(self.checked)} generators: "
            f"{self.all_consistent}; |K| = {self.kernel_size}"
        )

    def to_json_dict(self) -> dict:
        return {
            "group_size": self.group_size,
            "orbit_count": self.orbit_count,
            "vertex_count": self.vertex_count,
            "argument": self.argument,
            "checked_count": len(self.checked),
            "inconsistent": list(self.inconsistent),
            "kernel": list(self.kernel),
            "kernel_size": self.kernel_size,
            "all_consistent": self.all_consistent,
            "passed": self.passed,
        }


def verify_colour_group(spec: OrbitGraphSpec) -> ColourGroupReport:
    """Prove that every group element acts colour-consistently on the
    assembled graph by checking the group's generating set.

    Right multiplication g -> s_g and phi are both homomorphisms, since a
    FiniteGroup's table is associative and its phi a homomorphism. Then if
    s_a carries each colour c to phi(a)(c) and s_b carries it to
    phi(b)(c), s_ab = s_a then s_b carries it to phi(ab)(c). The consistent
    elements therefore form a subgroup, which is the whole group once the
    generators pass."""
    graph = assemble_orbit_graph(spec)
    G = spec.group
    inconsistent = tuple(
        a
        for a in G.gens
        if not is_colour_consistent(graph, action_vertex_perm(spec, a), G.phi[a])
    )
    return ColourGroupReport(
        group_size=G.size,
        orbit_count=spec.orbit_count,
        vertex_count=spec.vertex_count,
        argument="generators + homomorphism",
        checked=G.gens,
        inconsistent=inconsistent,
        kernel=G.kernel(),
        graph=graph,
    )


def add_witness_orbit(spec: OrbitGraphSpec, q) -> OrbitGraphSpec:
    """Append one orbit whose identity vertex witnesses the query q: for a
    vertex of q's part U_c the connecting colour is forced to c, all other
    new cross colours are seeded-random. Colours between pre-existing
    vertices are untouched."""
    G = spec.group
    size = G.size
    N = spec.orbit_count
    check_vertex_count((N + 1) * size)
    if len(q.parts) != G.m:
        raise ValueError(f"query has {len(q.parts)} parts, palette is {G.m}")
    forced: dict[tuple[int, int], int] = {}
    for colour, part in enumerate(q.parts, 1):
        for v in part:
            if not 0 <= v < spec.vertex_count:
                raise ValueError(f"query vertex {v} lies outside the existing orbits")
            forced[divmod(v, size)] = colour
    rng = random.Random(f"orbit-spec:{spec.seed}:{N}")
    inter = dict(spec.inter)
    for j in range(N):
        values = []
        for x in range(size):
            c = forced.get((j, x))
            if c is None:
                c = rng.randrange(G.m) + 1
            values.append(c)
        inter[(j, N)] = tuple(values)
    return OrbitGraphSpec(
        colouring=spec.colouring, orbit_count=N + 1, inter=inter, seed=spec.seed
    )


def sym_complement(
    m: int, orbit_count: int, seed: int
) -> tuple[OrbitGraphSpec, ColourGroupReport]:
    """Full pipeline for an odd palette: the symmetric group of the colours
    acting on itself, a seeded pair colouring, seeded cross-orbit colours,
    and the consistency report (which must show a trivial kernel)."""
    if m % 2 == 0 or m < 3:
        raise ValueError("an odd palette size >= 3 is required")
    G = symmetric_group(m)
    f = build_pair_colouring(G, seed)
    spec = make_orbit_spec(G, f, orbit_count, seed)
    return spec, verify_colour_group(spec)


def assembled_graph_json_dict(spec: OrbitGraphSpec, graph: ColouredGraph) -> dict:
    """The graph assembled from spec (as verify_colour_group keeps it) in
    graph-JSON form, plus the orbit/element label of every flat vertex id."""
    labels = [
        {"orbit": v // spec.group.size, "element": v % spec.group.size}
        for v in range(spec.vertex_count)
    ]
    return {"graph": graph.to_json_dict(), "vertex_labels": labels}
