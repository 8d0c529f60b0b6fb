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
    ColouredGraph,
    check_vertex_count,
    colour_lookup,
    colour_stream,
    is_colour_consistent,
    load_json,
    row_blocks,
)
from .perms import (
    Perm,
    _is_int,
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

    mul[g, h] is the label of g*h; label 0 is the identity; row g of the
    (size, m) uint8 array phi is the permutation of {1..m} induced by g, so
    phi[g, c - 1] is the image of colour c. Only mul and phi are given, and
    optionally the labels proposed as generators; size, m, the inverses and
    a generating set (see `generators`) are derived, and every table is
    read-only. Construction is the proof: it raises ValueError unless mul
    is a group table and phi a homomorphism into Sym(m) under the package's
    right-action composition.
    """

    mul: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    proposed: tuple[int, ...] = field(default=(), repr=False)
    size: int = field(init=False)
    m: int = field(init=False)
    inv: np.ndarray = field(init=False, repr=False)
    gens: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mul = np.asarray(self.mul)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or not mul.size:
            raise ValueError("the multiplication table must be a nonempty square")
        size = len(mul)
        if mul.dtype.kind not in "iu" or mul.min() < 0 or mul.max() >= size:
            raise ValueError("table entries must be element labels")
        mul = mul.astype(np.int32, order="C")  # one copy, row-major whatever the input
        labels = np.arange(size)
        if not np.array_equal(mul[0], labels) or not np.array_equal(mul[:, 0], labels):
            raise ValueError("label 0 must be the identity")
        rows, inv = np.nonzero(mul == 0)
        if not np.array_equal(rows, labels):
            raise ValueError("each row must contain the identity exactly once")
        if len(self.phi) != size:
            raise ValueError("phi must assign a colour permutation to every element")
        m = len(self.phi[0])
        try:
            phi = np.asarray(self.phi)
        except ValueError:  # numpy refuses ragged rows
            phi = np.empty(0)
        odd = size  # the first row that is not m integers, scanned for only when numpy balks
        if phi.shape != (size, m) or phi.size and phi.dtype.kind not in "iu":
            rows = enumerate(self.phi)
            odd = next((g for g, p in rows if len(p) != m or not all(map(_is_int, p))), size)
            phi = np.array(self.phi[:odd]).reshape(odd, m)  # the rows before it
        ident = np.arange(1, m + 1)
        bad = [*np.flatnonzero((np.sort(phi, axis=1) != ident).any(axis=1)), odd]
        if bad[0] < size:
            raise ValueError(f"phi[{bad[0]}] is not a permutation of 1..{m}")
        if (phi[0] != ident).any():
            raise ValueError("the identity must act trivially on colours")
        phi = np.ascontiguousarray(colour_lookup(phi)[:, 1:])  # uint8, m <= MAX_PALETTE
        proposed = tuple(self.proposed)
        if not all(_is_int(g) and 0 <= g < size for g in proposed):
            raise ValueError("proposed generators must be element labels")
        gens = generators(mul, proposed)
        if not is_associative(mul, gens):
            raise ValueError("the multiplication table is not associative")
        if not is_phi_homomorphism(mul, phi, gens):
            raise ValueError("phi is not a homomorphism")
        inv = inv.astype(np.int32)
        for table in (mul, inv, phi):
            table.flags.writeable = False
        for name, value in dict(
            mul=mul, phi=phi, proposed=proposed, size=size, m=m, inv=inv, gens=gens,
        ).items():
            object.__setattr__(self, name, value)

    def product(self, g: int, h: int) -> int:
        return int(self.mul[g, h])

    def inverse_of(self, g: int) -> int:
        return int(self.inv[g])

    def involutions(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(np.diagonal(self.mul) == 0)[1:].tolist())

    def kernel(self) -> tuple[int, ...]:
        """Labels acting trivially on the colours."""
        return tuple(np.flatnonzero((self.phi == np.arange(1, self.m + 1)).all(axis=1)).tolist())

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "m": self.m,
            "mul": self.mul.tolist(),
            "phi": self.phi.tolist(),
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
    x*y = (x*p)*g. The columns are filled as rows of the transpose, which
    is returned as a view."""
    size = len(steps) + 1
    columns = [np.asarray(col, dtype=np.int32) for col in right]
    t = np.empty((size, size), dtype=np.int32)  # t[y] is column y of the table
    t[0] = np.arange(size)
    for y, p, g in steps:
        t[y] = columns[g][t[p]]
    return t.T


def group_from_perms(perms: Iterable[Perm]) -> FiniteGroup:
    """Turn a set of colour permutations closed under composition and
    containing the identity (a finite such set is a group) into a
    FiniteGroup whose colour action is the tautological one. Labels: the
    identity, then the rest sorted. Closure is proven by generators that
    reach every label and map the set into itself: (1 2) and (1 2 ... m)
    where the set holds them, which generate Sym(m), completed as in
    `generators`; the FiniteGroup is proposed the same labels."""
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
    swap, rotation = (2, 1, *range(3, m + 1)), (*range(2, m + 1), 1)  # (1 2), (1 2 ... m)
    pending = iter([index[p] for p in (swap, rotation) if p in index])
    reached = [True] + [False] * (len(ordering) - 1)
    labels: list[int] = []
    right: list[list[int]] = []
    steps: list[tuple[int, int, int]] = []
    while not all(reached):
        labels.append(next((g for g in pending if not reached[g]), reached.index(False)))
        h = ordering[labels[-1]]
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
    return FiniteGroup(mul=cayley_table(right, steps), phi=ordering, proposed=tuple(labels))


def symmetric_group(m: int) -> FiniteGroup:
    """Sym(m) acting on the colours by itself. The table has (m!)^2
    entries, so m is capped before anything is built."""
    if not 1 <= m <= SYM_GROUP_MAX_M:
        raise ValueError(f"m must be in 1..{SYM_GROUP_MAX_M} to build Sym(m)")
    return group_from_perms(enumerate_sym(m))


def generators(mul: np.ndarray, proposed: Sequence[int] = ()) -> tuple[int, ...]:
    """Generating set of a table: repeatedly adjoin a label outside the
    subgroup generated so far, the next proposed one while any is left and
    then the smallest. In a group each new generator at least doubles that
    subgroup, so there are at most log2 |G| of them, and proposed labels
    already inside it are passed over.

    The subgroup grows by right multiplication from the identity, so every
    label is reached as a left-nested product of generators whether or not
    the table is associative; Light's test relies on exactly that."""
    reached = np.zeros(len(mul), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    pending = iter(proposed)
    while not reached.all():
        gens.append(next((g for g in pending if not reached[g]), int(np.argmin(reached))))
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
    for a in gens:
        a_times = mul[a]
        for rows in row_blocks(len(mul), len(mul)):
            block = mul[rows]
            if not np.array_equal(mul[block[:, a]], block[:, a_times]):
                return False
    return True


def is_phi_homomorphism(mul: np.ndarray, phi: np.ndarray, gens: tuple[int, ...]) -> bool:
    """phi(x*a) == phi(x) followed by phi(a), which is row a read at the
    images in row x, for every generator a and all x. Over an associative
    table this extends to every product."""
    return all(np.array_equal(phi[mul[:, a]], phi[a][phi - 1]) for a in gens)


@dataclass(frozen=True, eq=False)
class PairColouring:
    """Colours of the pairs (identity, y), one per nonidentity y; the rest
    of the pair colouring follows by translation.

    Construction checks that entry 0 is 0 (it is the diagonal of every
    orbit), every other base colour against the palette and the
    compatibility constraint base[y^-1] == phi(y^-1)(base[y]) for every
    nonidentity y (for involutions this forces a fixed colour); otherwise
    it raises ValueError naming the first offending element."""

    group: FiniteGroup
    base: tuple[int, ...]  # indexed by element label

    def __post_init__(self) -> None:
        G = self.group
        if len(self.base) != G.size:
            raise ValueError("one base colour per group element is required")
        base = tuple(int(c) for c in self.base)
        if base[0] != 0:
            raise ValueError("base entry 0, the identity's, must be 0")
        for y in range(1, G.size):
            if not 1 <= base[y] <= G.m:
                raise ValueError(f"base colour of element {y} out of range")
        colours = np.array(base, dtype=np.int32)
        inverses = G.inv[1:]
        broken = np.flatnonzero(colours[inverses] != G.phi[inverses, colours[1:] - 1])
        if broken.size:
            y = int(broken[0]) + 1
            raise ValueError(
                f"base colours of {y} and its inverse {G.inverse_of(y)} are incompatible"
            )
        object.__setattr__(self, "base", base)


def build_pair_colouring(G: FiniteGroup, seed: int) -> PairColouring:
    """Draw base colours uniformly (seeded) subject to the compatibility
    constraint; an involution draws among the fixed colours of its action
    and raises FixedPointFreeInvolution when there are none."""
    rng = random.Random(f"pair-colouring:{seed}")
    phi, inv = G.phi.tolist(), G.inv.tolist()
    base = [0] * G.size
    for y in range(1, G.size):
        if base[y]:
            continue
        yi = inv[y]
        if yi == y:
            fixed = sorted(fixed_points(phi[y]))
            if not fixed:
                raise FixedPointFreeInvolution(y, tuple(phi[y]))
            base[y] = rng.choice(fixed)
        else:
            c = rng.randrange(G.m) + 1
            base[y] = c
            base[yi] = phi[yi][c - 1]
    return PairColouring(group=G, base=tuple(base))


def pair_colour(f: PairColouring, x: int, y: int) -> int:
    """Colour of the pair {x, y}: translate to (identity, y*x^-1), look up
    the base colour, push it through phi(x)."""
    if x == y:
        raise ValueError("pairs consist of distinct elements")
    G = f.group
    return int(G.phi[x, f.base[G.product(y, G.inverse_of(x))] - 1])


def _orbit_block(G: FiniteGroup, quotient: np.ndarray, b: Sequence[int]) -> np.ndarray:
    """The block [y, z] = phi(z)(b[quotient[y, z]]) for quotient[y, z] =
    y * z^-1, over the rows y that quotient holds: colours between two
    orbits, or inside one when b is the base colouring, whose b[0] = 0 gives
    the zero diagonal. colour_lookup(phi) is read flat, row z from z * (m + 1)."""
    rows = np.arange(G.size, dtype=np.int32) * (G.m + 1)
    return colour_lookup(G.phi).ravel().take(np.asarray(b, dtype=np.uint8)[quotient] + rows)


def pair_colour_matrix(f: PairColouring) -> np.ndarray:
    """All pair colours at once: entry [x, y] is pair_colour(f, x, y), with
    a zero diagonal."""
    G = f.group
    return _orbit_block(G, G.mul[:, G.inv], f.base).T


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
        return cls(
            colouring=PairColouring(group=group, base=(0, *(base[y] for y in labels))),
            orbit_count=N,
            inter={pairs[key]: tuple(values) for key, values in inter.items()},
            seed=seed,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OrbitGraphSpec":
        return cls.from_json_dict(load_json(text))


def make_orbit_spec(
    G: FiniteGroup, f: PairColouring, orbit_count: int, seed: int
) -> OrbitGraphSpec:
    """Draw every cross-orbit base colour uniformly (seeded)."""
    if f.group is not G and not all(map(np.array_equal, (f.group.mul, f.group.phi), (G.mul, G.phi))):
        raise ValueError("pair colouring was built over a different group")
    check_vertex_count(orbit_count * G.size)
    draw = colour_stream(random.Random(f"orbit-spec:{seed}"), G.m)
    inter = {
        (i, j): tuple(draw(G.size).tolist())
        for i in range(orbit_count)
        for j in range(i + 1, orbit_count)
    }
    return OrbitGraphSpec(colouring=f, orbit_count=orbit_count, inter=inter, seed=seed)


def assemble_orbit_graph(spec: OrbitGraphSpec) -> ColouredGraph:
    """Materialise the complete coloured graph: inside an orbit the pair
    colouring; for orbits i < j the colour of {y_i, z_j} is the image under
    phi(z) of the inter colour at y*z^-1.

    The uint8 matrix is written in blocks of rows y of the group, each
    block of orbits i < j above the diagonal and its transpose below. An
    orbit's own block is the transpose of its base colouring's block, which
    PairColouring's constraint makes symmetric, so the whole matrix is
    symmetric by construction. It is handed over read-only, and
    ColouredGraph checks it without a copy."""
    G = spec.group
    size = G.size
    colourings = [((i, i), spec.colouring.base) for i in range(spec.orbit_count)]
    colourings += sorted(spec.inter.items())
    C = np.empty((spec.vertex_count, spec.vertex_count), dtype=np.uint8)
    for rows in row_blocks(size, size):
        quotient = G.mul[rows][:, G.inv]  # [y, z] = y * z^-1
        start, stop = rows.start, rows.stop
        for (i, j), values in colourings:
            block = _orbit_block(G, quotient, values)
            if i != j:
                C[i * size + start : i * size + stop, j * size : (j + 1) * size] = block
            C[j * size : (j + 1) * size, i * size + start : i * size + stop] = block.T
    C.flags.writeable = False
    return ColouredGraph(m=G.m, n=spec.vertex_count, colours=C)


def action_vertex_perm(spec: OrbitGraphSpec, g: int) -> Perm:
    """Right multiplication by g on every orbit, as a vertex permutation
    (1-based images over the flat vertex ids)."""
    G = spec.group
    images = np.arange(spec.orbit_count)[:, None] * G.size + G.mul[:, g] + 1
    return tuple(images.ravel().tolist())


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

    def summary(self) -> str:
        return (
            f"all {self.group_size} elements consistent on {self.vertex_count} "
            f"vertices by {self.argument} over {len(self.checked)} generators: "
            f"{self.all_consistent}; |K| = {self.kernel_size}"
        )


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

