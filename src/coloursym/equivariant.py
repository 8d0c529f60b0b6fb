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
from typing import Iterable, Mapping

import numpy as np

from .graphs import ROW_BLOCK_ENTRIES, ColouredGraph, is_colour_consistent
from .perms import (
    Perm,
    apply,
    compose,
    cycle_string,
    enumerate_sym,
    fixed_points,
    identity,
    inverse,
    is_perm,
    perm,
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
    permutation of {1..m} induced by g, with phi a homomorphism under the
    package's right-action composition.
    """

    size: int
    mul: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    phi: tuple[Perm, ...]
    m: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("a group has at least the identity")
        mul = np.array(self.mul, dtype=np.int32, copy=True)
        inv = np.array(self.inv, dtype=np.int32, copy=True)
        if mul.shape != (self.size, self.size):
            raise ValueError("multiplication table has the wrong shape")
        if inv.shape != (self.size,):
            raise ValueError("inverse table has the wrong shape")
        if mul.size and (mul.min() < 0 or mul.max() >= self.size):
            raise ValueError("table entries must be element labels")
        labels = np.arange(self.size)
        if not np.array_equal(mul[0], labels) or not np.array_equal(mul[:, 0], labels):
            raise ValueError("label 0 must be the identity")
        if not (mul[labels, inv] == 0).all() or not (mul[inv, labels] == 0).all():
            raise ValueError("inverse table does not invert")
        if len(self.phi) != self.size:
            raise ValueError("phi must assign a colour permutation to every element")
        for g, p in enumerate(self.phi):
            if len(p) != self.m or not is_perm(p):
                raise ValueError(f"phi[{g}] is not a permutation of 1..{self.m}")
        if self.phi[0] != identity(self.m):
            raise ValueError("the identity must act trivially on colours")
        mul.flags.writeable = False
        inv.flags.writeable = False
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "phi", tuple(tuple(p) for p in self.phi))

    def product(self, g: int, h: int) -> int:
        return int(self.mul[g, h])

    def inverse_of(self, g: int) -> int:
        return int(self.inv[g])

    def colour_perm(self, g: int) -> Perm:
        return self.phi[g]

    def is_involution(self, g: int) -> bool:
        return g != 0 and int(self.mul[g, g]) == 0

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
        if not isinstance(data, dict):
            raise ValueError("group JSON must be an object")
        try:
            size, m, mul, phi = data["size"], data["m"], data["mul"], data["phi"]
        except KeyError as exc:
            raise ValueError(f"group JSON missing key {exc}") from exc
        mul_arr = np.asarray(mul, dtype=np.int32)
        if mul_arr.shape != (size, size):
            raise ValueError("multiplication table has the wrong shape")
        zeros = np.nonzero(mul_arr == 0)
        if len(zeros[0]) != size:
            raise ValueError("each row must contain the identity exactly once")
        inv = np.full(size, -1, dtype=np.int32)
        inv[zeros[0]] = zeros[1]
        return cls(size=size, mul=mul_arr, inv=inv, phi=tuple(perm(p) for p in phi), m=m)


def group_from_perms(perms: Iterable[Perm]) -> FiniteGroup:
    """Turn a set of colour permutations closed under composition and
    inverse (and containing the identity) into a FiniteGroup whose colour
    action is the tautological one."""
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
    size = len(ordering)
    inv = np.empty(size, dtype=np.int32)
    for i, p in enumerate(ordering):
        pinv = inverse(p)
        if pinv not in index:
            raise ValueError(f"set is not closed under inverse: {cycle_string(p)}")
        inv[i] = index[pinv]
    if m <= 15:
        mul = _perm_table_vectorised(ordering, m)
    else:
        mul = np.empty((size, size), dtype=np.int32)
        for i, p in enumerate(ordering):
            for j, q in enumerate(ordering):
                r = index.get(compose(p, q))
                if r is None:
                    raise ValueError(
                        f"set is not closed under composition: "
                        f"{cycle_string(p)} * {cycle_string(q)}"
                    )
                mul[i, j] = r
    return FiniteGroup(size=size, mul=mul, inv=inv, phi=tuple(ordering), m=m)


def _perm_table_vectorised(ordering: list[Perm], m: int) -> np.ndarray:
    """Multiplication table via base-m row encodings; needs m <= 15 so the
    codes fit in int64."""
    size = len(ordering)
    arr = np.asarray(ordering, dtype=np.int64) - 1  # 0-based images
    powers = m ** np.arange(m, dtype=np.int64)
    codes = arr @ powers
    sorter = np.argsort(codes)
    sorted_codes = codes[sorter]
    mul = np.empty((size, size), dtype=np.int32)
    for j in range(size):
        composed = arr[j][arr]  # row i = ordering[i] followed by ordering[j]
        wanted = composed @ powers
        pos = np.searchsorted(sorted_codes, wanted)
        pos[pos == size] = 0
        misses = np.nonzero(sorted_codes[pos] != wanted)[0]
        if misses.size:
            i = int(misses[0])
            raise ValueError(
                f"set is not closed under composition: "
                f"{cycle_string(ordering[i])} * {cycle_string(ordering[j])}"
            )
        mul[:, j] = sorter[pos]
    return mul


def trivial_group(m: int) -> FiniteGroup:
    return group_from_perms([identity(m)])


def symmetric_group(m: int) -> FiniteGroup:
    """Sym(m) acting on the colours by itself. The table has (m!)^2
    entries, so m is capped before anything is built."""
    if not 1 <= m <= SYM_GROUP_MAX_M:
        raise ValueError(f"m must be in 1..{SYM_GROUP_MAX_M} to build Sym(m)")
    return group_from_perms(enumerate_sym(m))


def generators(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set: repeatedly adjoin the smallest label outside
    the subgroup generated so far. Each new generator at least doubles that
    subgroup, so there are at most log2 |G| of them.

    The subgroup grows by right multiplication from the identity, so every
    label is reached as a left-nested product of generators whether or not
    the table is associative; Light's test relies on exactly that."""
    reached = np.zeros(G.size, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            images = np.unique(G.mul[np.ix_(frontier, gens)])
            frontier = images[~reached[images]]
            reached[frontier] = True
    return tuple(gens)


def is_associative(G: FiniteGroup, gens: tuple[int, ...]) -> bool:
    """Light's test: (x*a)*y == x*(a*y) for every generator a and all x, y.
    The elements a passing it are closed under products, and every label is
    a product of the generators, so this proves the whole table associative.
    Row blocks keep the temporaries far below size^2 entries."""
    MUL = G.mul
    rows = max(1, ROW_BLOCK_ENTRIES // G.size)
    for a in gens:
        a_times = MUL[a]
        for start in range(0, G.size, rows):
            block = MUL[start : start + rows]
            if not np.array_equal(MUL[block[:, a]], block[:, a_times]):
                return False
    return True


def is_phi_homomorphism(G: FiniteGroup, gens: tuple[int, ...]) -> bool:
    """phi(x*a) == phi(x) followed by phi(a) for every generator a and all
    x. Over an associative table this extends to every product."""
    PHI = np.asarray(G.phi, dtype=np.int32)
    return all(np.array_equal(PHI[G.mul[:, a]], PHI[a][PHI - 1]) for a in gens)


def check_group_axioms(G: FiniteGroup) -> bool:
    """Verify the full invariant set exactly: identity, inverses, and, over
    a greedy generating set, associativity by Light's test and that phi is
    a homomorphism."""
    size, MUL = G.size, G.mul
    labels = np.arange(size)
    if not np.array_equal(MUL[0], labels) or not np.array_equal(MUL[:, 0], labels):
        return False
    if not (MUL[labels, G.inv] == 0).all() or not (MUL[G.inv, labels] == 0).all():
        return False
    gens = generators(G)
    return is_associative(G, gens) and is_phi_homomorphism(G, gens)


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
    phi_table = _phi_lookup(G)
    idx = G.mul[np.ix_(np.arange(size), G.inv)].T  # [x, y] = y * x^-1
    return phi_table[np.arange(size)[:, None], base[idx]]


def _phi_lookup(G: FiniteGroup) -> np.ndarray:
    """(size, m+1) table with [g, c] = phi(g)(c) and column 0 fixed at 0."""
    table = np.zeros((G.size, G.m + 1), dtype=np.int32)
    table[:, 1:] = np.asarray(G.phi, dtype=np.int32)
    return table


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
        if not isinstance(data, dict):
            raise ValueError("orbit-spec JSON must be an object")
        group = FiniteGroup.from_json_dict(data["group"])
        base = [0] * group.size
        for key, value in data["base"].items():
            base[int(key)] = int(value)
        inter = {}
        for key, values in data["inter"].items():
            i, j = (int(part) for part in key.split(","))
            inter[(i, j)] = tuple(values)
        return cls(
            colouring=PairColouring(group=group, base=tuple(base)),
            orbit_count=int(data["N"]),
            inter=inter,
            seed=int(data["seed"]),
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
    phi_table = _phi_lookup(G)
    F = pair_colour_matrix(spec.colouring)
    C = np.zeros((n, n), dtype=np.int32)
    for i in range(spec.orbit_count):
        C[i * size : (i + 1) * size, i * size : (i + 1) * size] = F
    idx = G.mul[np.ix_(np.arange(size), G.inv)]  # [y, z] = y * z^-1
    cols = np.arange(size)[None, :]
    for (i, j), values in sorted(spec.inter.items()):
        b = np.asarray(values, dtype=np.int32)
        block = phi_table[cols, b[idx]]
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

    `argument` names the proof: the generators in `checked` pass the colour
    check unless listed in `inconsistent`, and on the same generators the
    table passes Light's associativity test and phi the homomorphism check."""

    group_size: int
    orbit_count: int
    vertex_count: int
    argument: str
    checked: tuple[int, ...]
    associative: bool
    homomorphism: bool
    inconsistent: tuple[int, ...]
    kernel: tuple[int, ...]

    @property
    def exhaustive(self) -> bool:
        """Always true: the argument covers every group element."""
        return True

    @property
    def all_consistent(self) -> bool:
        return self.associative and self.homomorphism and not self.inconsistent

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
            "associative": self.associative,
            "homomorphism": self.homomorphism,
            "inconsistent": list(self.inconsistent),
            "kernel": list(self.kernel),
            "kernel_size": self.kernel_size,
            "all_consistent": self.all_consistent,
            "passed": self.passed,
        }


def verify_colour_group(spec: OrbitGraphSpec) -> ColourGroupReport:
    """Prove that every group element acts colour-consistently on the
    assembled graph by checking a generating set.

    Right multiplication g -> s_g and phi are both homomorphisms once the
    table is associative and phi passes its check. Then if s_a carries each
    colour c to phi(a)(c) and s_b carries it to phi(b)(c), s_ab = s_a then
    s_b carries it to phi(ab)(c). The consistent elements therefore form a
    subgroup, which is the whole group once the generators pass."""
    graph = assemble_orbit_graph(spec)
    G = spec.group
    gens = generators(G)
    inconsistent = tuple(
        a
        for a in gens
        if not is_colour_consistent(graph, action_vertex_perm(spec, a), G.phi[a])
    )
    return ColourGroupReport(
        group_size=G.size,
        orbit_count=spec.orbit_count,
        vertex_count=spec.vertex_count,
        argument="generators + homomorphism",
        checked=gens,
        associative=is_associative(G, gens),
        homomorphism=is_phi_homomorphism(G, gens),
        inconsistent=inconsistent,
        kernel=G.kernel(),
    )


def add_witness_orbit(spec: OrbitGraphSpec, q) -> OrbitGraphSpec:
    """Append one orbit whose identity vertex witnesses the query q: for a
    vertex of q's part U_c the connecting colour is forced to c, all other
    new cross colours are seeded-random. Colours between pre-existing
    vertices are untouched."""
    G = spec.group
    size = G.size
    N = spec.orbit_count
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


def assembled_graph_json_dict(spec: OrbitGraphSpec) -> dict:
    """Assembled graph in graph-JSON form plus the orbit/element label of
    every flat vertex id."""
    graph = assemble_orbit_graph(spec)
    labels = [
        {"orbit": v // spec.group.size, "element": v % spec.group.size}
        for v in range(spec.vertex_count)
    ]
    return {"graph": graph.to_json_dict(), "vertex_labels": labels}
