"""Permutations of {1..d} in image form, plus symmetric-group enumeration.

A permutation of degree d is a tuple of length d whose entry at position
i-1 is the image of i. Indices and colour values are 1-based throughout
the package; graph vertices (which live in a different world) are 0-based.

Composition follows the right-action convention used everywhere here:

    apply(compose(g, h), i) == apply(h, apply(g, i))

so iterated actions read left to right, the way exponent notation
i^(gh) = (i^g)^h does.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

Perm = tuple[int, ...]

MAX_ENUM_DEGREE = 8  # 8! = 40320 is the practical ceiling for full enumeration
MAX_BOUND_BITS = 1 << 16  # m^(k^2) is computed only up to about this many bits


def _is_int(x: object) -> bool:
    """An integer, but not a bool: JSON true/false load as Python bools,
    which are ints to isinstance."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_perm(images: Sequence[int]) -> bool:
    """Check that images lists each of 1..d exactly once, as integers.

    >>> is_perm((2, 1, 3)), is_perm((2, 2, 3)), is_perm(()), is_perm((True,))
    (True, False, True, False)
    """
    seen = [False] * len(images)
    for x in images:
        if not _is_int(x) or not 1 <= x <= len(images) or seen[x - 1]:
            return False
        seen[x - 1] = True
    return True


def perm(images: Iterable[int]) -> Perm:
    """Validate and freeze an image sequence into a permutation."""
    p = tuple(int(x) for x in images)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def identity(d: int) -> Perm:
    """The identity permutation of degree d.

    >>> identity(3)
    (1, 2, 3)
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(range(1, d + 1))


def apply(g: Perm, i: int) -> int:
    """Image of the point i under g (1-based)."""
    if not 1 <= i <= len(g):
        raise IndexError(f"point {i} out of range for degree {len(g)}")
    return g[i - 1]


def compose(g: Perm, h: Perm) -> Perm:
    """g followed by h: apply(compose(g, h), i) == apply(h, apply(g, i)).

    >>> compose((2, 1, 3), (1, 3, 2))   # (1 2) then (2 3)
    (3, 1, 2)
    """
    if len(g) != len(h):
        raise ValueError(f"degree mismatch: {len(g)} vs {len(h)}")
    return tuple(h[x - 1] for x in g)


def inverse(g: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x - 1] = i + 1
    return tuple(inv)


def cycles(g: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of g, fixed points included.

    Each cycle starts at its smallest point and follows the action; cycles
    are ordered by their smallest point.

    >>> cycles((2, 1, 3))
    ((1, 2), (3,))
    """
    out = []
    seen = [False] * len(g)
    for start in range(1, len(g) + 1):
        if seen[start - 1]:
            continue
        cyc = []
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            cyc.append(i)
            i = g[i - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_type(g: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, fixed points included, sorted ascending.

    >>> cycle_type((2, 1, 4, 3))
    (2, 2)
    """
    return tuple(sorted(len(c) for c in cycles(g)))


def fixed_points(g: Perm) -> frozenset[int]:
    """The points i with apply(g, i) == i."""
    return frozenset(i for i in range(1, len(g) + 1) if g[i - 1] == i)


def is_involution(g: Perm) -> bool:
    """True iff g has order exactly 2 (the identity does not count)."""
    ident = identity(len(g))
    return g != ident and compose(g, g) == ident


def transposition(d: int, a: int, b: int) -> Perm:
    """The transposition (a b) in degree d."""
    if not (1 <= a <= d and 1 <= b <= d) or a == b:
        raise ValueError(f"invalid transposition ({a} {b}) in degree {d}")
    images = list(range(1, d + 1))
    images[a - 1], images[b - 1] = b, a
    return tuple(images)


def from_cycles(d: int, cycs: Iterable[Iterable[int]]) -> Perm:
    """Build a permutation of degree d from disjoint cycles.

    >>> from_cycles(4, [(1, 2), (3, 4)])
    (2, 1, 4, 3)
    """
    images = list(range(1, d + 1))
    used: set[int] = set()
    for cyc in cycs:
        cyc = tuple(cyc)
        for x in cyc:
            if not 1 <= x <= d or x in used:
                raise ValueError(f"cycles not disjoint or out of range: {cyc}")
            used.add(x)
        for i, x in enumerate(cyc):
            images[x - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def cycle_string(g: Perm) -> str:
    """Cycle notation with fixed points suppressed, e.g. '(1 2)(3 4)'."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(g) if len(c) > 1]
    return "".join(parts) if parts else "id"


def enumerate_sym(d: int) -> list[Perm]:
    """All d! permutations of degree d, lexicographic by image sequence."""
    if not 1 <= d <= MAX_ENUM_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_ENUM_DEGREE}, got {d}")
    return list(itertools.permutations(range(1, d + 1)))


def double_coset_lower_bound(m: int, k: int) -> bool:
    """Whether m^(k^2) exceeds m * (k!)^2, in exact integer arithmetic.

    For a palette of m colours, m^(k^2)/(k!)^2 counts colourings of a
    k-by-k grid up to row and column permutations from below; the bound
    holds for every k >= 2 and fails at k = 1.
    """
    if m < 2:
        raise ValueError("palette size must be at least 2")
    if k < 1:
        raise ValueError("set size must be at least 1")
    bits = k * k * m.bit_length()
    if bits > MAX_BOUND_BITS:
        raise ValueError(f"m^(k^2) needs up to {bits} bits, above the limit of {MAX_BOUND_BITS}")
    return m ** (k * k) > m * math.factorial(k) ** 2


def perm_to_json(g: Perm) -> list[int]:
    """Permutations serialize as JSON arrays of 1-based images."""
    return list(g)


def perm_from_json(data: object) -> Perm:
    """Read a JSON array of integer images; anything else raises ValueError."""
    if not isinstance(data, list) or not all(_is_int(x) for x in data):
        raise ValueError(f"permutation must be a JSON array of integers, got {data!r}")
    return perm(data)
