"""The two double covers of a symmetric group, built exactly.

Working model: the Clifford algebra on generators e_1..e_m with either
e_i^2 = -1 (the "tilde" kind) or e_i^2 = +1 (the "hat" kind) and
e_i e_j = -e_j e_i for i != j. The unit vector (e_a - e_b)/sqrt(2)
conjugates the basis vectors by the transposition (a b) up to sign, so
products of such vectors form a group that maps onto the symmetric group
with kernel {+1, -1}: a double cover. Which kind is which cover follows
from Schur's relations on the pair vectors (`broken_schur_relation`):
disjoint pair vectors anticommute, so in the tilde cover a product of r
disjoint transpositions lifts to order 4 exactly when r = 1 or 2 (mod 4),
in the hat cover exactly when r = 2 or 3 (mod 4) (`predicted_lift_order`).

A product of k pair vectors is (sqrt 2)^(-k) times an integer combination
of at most 2^k blades, so every element is stored that way: one exponent
k and a sparse tuple of (blade, integer) pairs, in a unique normal form.
Group elements therefore compare and hash by value and the enumeration
can intern them.

Cover enumeration keeps the same normal form densely: the exponent k and
one int64 row over all 2^m blades. Right multiplication by a generator is
then a signed gather of the row, so the closure runs on whole layers of
rows, and an enumerated cover builds its PinElements only when they are
first read.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .equivariant import FiniteGroup, cayley_table
from .graphs import MAX_PALETTE
from .perms import (
    Perm,
    cycle_type,
    cycles,
    enumerate_sym,
    from_cycles,
    identity,
    transposition,
)

COVER_ENUM_MAX_M = 6  # 2 * 6! = 1440 elements is the enumeration ceiling
DIRECT_LIFT_MAX_M = 12  # a lift holds up to 2^(m-1) blades; caps what order() multiplies


class CoverKind(enum.Enum):
    """Blade-square convention; each value yields one of the two covers."""

    TILDE = "tilde"  # e_i^2 = -1
    HAT = "hat"  # e_i^2 = +1


# perfbench/tracing.py counts a product's blades as the coeffs not equal to
# this; every entry of coeffs is a (blade, nonzero integer) pair, so none is
SCALAR_ZERO = (0, 0)


def sign_mask(b: int, kind: CoverKind) -> int:
    """Bit i is set when e_i passes an odd number of b's generators on its
    way right, or, for tilde, squares one of them: e_a * e_b is then
    (-1)^popcount(a & mask) times e_(a ^ b). Bits above b's top generator
    are all set when b has an odd number of them (a negative mask)."""
    mask = b if kind is CoverKind.TILDE else 0
    while b:
        low = b & -b
        mask ^= -low << 1  # every bit above this generator
        b ^= low
    return mask


def blade_mul(a: int, b: int, kind: CoverKind) -> tuple[int, int]:
    """Product of two basis blades (bitmask over generators, bit i-1 for
    e_i): the symmetric-difference blade and its sign."""
    return a ^ b, -1 if (a & sign_mask(b, kind)).bit_count() % 2 else 1


@dataclass(frozen=True)
class PinElement:
    """(sqrt 2)^(-k) times the integer combination of blades in `coeffs`,
    a tuple of (blade bitmask, integer) pairs. The constructor sorts the
    pairs by blade, drops zeros and halves every integer while all are even
    and k >= 2, so equal values have equal fields. Group elements are
    parity-homogeneous unit products of vectors; the constructor enforces
    parity and nonzeroness."""

    kind: CoverKind
    m: int
    k: int
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_PALETTE:
            raise ValueError(f"m must be in 1..{MAX_PALETTE}")
        if self.k < 0:
            raise ValueError("the root-two exponent must be nonnegative")
        coeffs = sorted((mask, n) for mask, n in self.coeffs if n)
        if not coeffs:
            raise ValueError("the zero element is not a group element")
        masks = {mask for mask, _ in coeffs}
        if len(masks) != len(coeffs) or coeffs[0][0] < 0 or coeffs[-1][0] >> self.m:
            raise ValueError(f"blades must be distinct bitmasks below 2^{self.m}")
        if len({mask.bit_count() % 2 for mask in masks}) > 1:
            raise ValueError("element mixes even and odd blades")
        k = self.k
        while k >= 2 and all(n % 2 == 0 for _, n in coeffs):
            coeffs = [(mask, n // 2) for mask, n in coeffs]
            k -= 2
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", tuple(coeffs))


def unit(sign: int, m: int, kind: CoverKind) -> PinElement:
    """The scalar +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("unit takes sign +1 or -1")
    return PinElement(kind, m, 0, ((0, sign),))


def pair_vector(a: int, b: int, m: int, kind: CoverKind) -> PinElement:
    """(e_a - e_b)/sqrt(2): the unit vector conjugating by (a b)."""
    if a == b or not (1 <= a <= m and 1 <= b <= m):
        raise ValueError(f"invalid pair ({a}, {b}) for m={m}")
    return PinElement(kind, m, 1, ((1 << (a - 1), 1), (1 << (b - 1), -1)))


def pin_mul(a: PinElement, b: PinElement) -> PinElement:
    """Bilinear extension of blade multiplication; the exponents add."""
    if a.kind is not b.kind or a.m != b.m:
        raise ValueError("elements live in different algebras")
    acc: dict[int, int] = {}
    for mask_b, nb in b.coeffs:
        signs = sign_mask(mask_b, a.kind)
        for mask_a, na in a.coeffs:
            n = -na * nb if (mask_a & signs).bit_count() % 2 else na * nb
            acc[mask_a ^ mask_b] = acc.get(mask_a ^ mask_b, 0) + n
    return PinElement(a.kind, a.m, a.k + b.k, tuple(acc.items()))


def pin_neg(x: PinElement) -> PinElement:
    return replace(x, coeffs=tuple((mask, -n) for mask, n in x.coeffs))


def order(x: PinElement) -> int:
    """Least t >= 1 with x^t = +1."""
    one = unit(1, x.m, x.kind)
    cap = 2 * math.factorial(x.m) + 1
    acc = x
    for t in range(1, cap + 1):
        if acc == one:
            return t
        acc = pin_mul(acc, x)
    raise RuntimeError(f"no power of the element reached +1 within {cap} steps")


def lift(p: Perm, kind: CoverKind) -> PinElement:
    """One of the two preimages of p, chosen canonically: cycles by smallest
    point, each cycle (c1 c2 ... ck) contributing the pair vectors for
    (c1 c2), (c1 c3), ..., (c1 ck) in application order. The other preimage
    is the negation."""
    m = len(p)
    x = unit(1, m, kind)
    for cyc in cycles(p):
        for cj in cyc[1:]:
            x = pin_mul(x, pair_vector(cyc[0], cj, m, kind))
    return x


# -- cover enumeration -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpinCover:
    """An enumerated double cover: the interned FiniteGroup (phi row g, the
    projection of g), the label of the central -1, and the algebra element
    behind every label as (sqrt 2)^(-exponents[g]) times the integers of
    the read-only int64 row rows[g] (column b holds blade b), in
    PinElement's normal form. `elements`, the same elements as PinElements,
    is built on first read."""

    kind: CoverKind
    m: int
    group: FiniteGroup
    exponents: tuple[int, ...]
    rows: np.ndarray
    neg_unit_label: int

    @functools.cached_property
    def elements(self) -> tuple[PinElement, ...]:
        return tuple(
            PinElement(self.kind, self.m, k, tuple((b, n) for b, n in enumerate(row) if n))
            for k, row in zip(self.exponents, self.rows.tolist())
        )

    def negate_label(self, g: int) -> int:
        return int(self.group.mul[self.neg_unit_label, g])

    def order_by_table(self, g: int) -> int:
        """Order oracle using only the interned multiplication table."""
        t = 1
        acc = g
        while acc != 0:
            acc = int(self.group.mul[acc, g])
            t += 1
        return t


@functools.lru_cache(maxsize=None)
def enumerate_cover(m: int, kind: CoverKind) -> SpinCover:
    """Close {pair generators} union {-1} under right multiplication, intern
    the elements in discovery order (identity first; each element's products
    in generator order) and build the full multiplication table. The
    closure must have exactly 2 * m! elements, and FiniteGroup proves the
    table a group. It is proposed the generators t_1 and t_1 t_2 ... t_(m-1)
    (t_i the lift of (i i+1)), the lifts of (1 2) and an m-cycle: for m >= 4
    they generate the cover, since a subgroup mapping onto Sym(m) without -1
    would split it and neither cover splits (Schur 1911).

    It runs one breadth-first layer at a time on integer blade rows in
    PinElement's normal form, keyed by (k, row bytes): x * e_i holds
    sign(c ^ e_i, e_i) * x[c ^ e_i] at blade c, the Coxeter lift is two such
    gathers with k + 1, and -1 negates. A layer's projections are one gather
    too: row i of phi read through each generator's projection."""
    if not 2 <= m <= COVER_ENUM_MAX_M:
        raise ValueError(f"m must be in 2..{COVER_ENUM_MAX_M} for enumeration")
    blades = np.arange(1 << m)
    sources = [blades ^ (1 << i) for i in range(m)]
    signs = [
        np.array([blade_mul(c, 1 << i, kind)[1] for c in src.tolist()])
        for i, src in enumerate(sources)
    ]
    gen_projs = np.array([transposition(m, i, i + 1) for i in range(1, m)] + [identity(m)])
    one = (blades == 0).astype(np.int64)
    blocks = [one[None]]  # the rows each layer found, in discovery order
    phis = [np.arange(1, m + 1)[None]]  # and their projections
    exponents: list[int] = [0]
    index = {(0, one.tobytes()): 0}
    steps: list[tuple[int, int, int]] = []  # (y, p, g): y = p * generator g
    right: list[list[int]] = [[] for _ in gen_projs]
    target = 2 * math.factorial(m)
    start = 0
    while len(layer := blocks[-1]):
        ks = np.array(exponents[start:])
        terms = [layer[:, src] * sign for src, sign in zip(sources, signs)]
        prods = np.stack([a - b for a, b in zip(terms, terms[1:])] + [-layer], axis=1)
        prods = prods.reshape(-1, 1 << m)
        exps = np.stack([ks + 1] * (m - 1) + [ks], axis=1).ravel()
        projs = gen_projs[:, phis[-1] - 1].swapaxes(0, 1).reshape(-1, m)  # rows as in prods
        while (halve := (exps >= 2) & ~(prods & 1).any(axis=1)).any():
            prods[halve] //= 2
            exps[halve] -= 2
        found = []
        for r, (k, row) in enumerate(zip(exps.tolist(), prods)):
            i, gi = start + r // m, r % m
            j = index.setdefault((k, row.tobytes()), len(exponents))
            if j == len(exponents):
                if j >= target:
                    raise RuntimeError(f"closure exceeds the expected size {target}")
                found.append(r)
                exponents.append(k)
                steps.append((j, i, gi))
            right[gi].append(j)
        start += len(layer)
        blocks.append(prods[found])
        phis.append(projs[found])
    size = len(exponents)
    if size != target:
        raise RuntimeError(f"closure size {size} != 2 * {m}! = {target}")
    table = np.concatenate(blocks)
    table.flags.writeable = False
    coxeter = 0  # t_1 t_2 ... t_(m-1), one right product at a time
    for gi in range(m - 1):
        coxeter = right[gi][coxeter]
    return SpinCover(
        kind=kind,
        m=m,
        group=FiniteGroup(
            mul=cayley_table(right, steps), phi=np.vstack(phis), proposed=(right[0][0], coxeter)
        ),
        exponents=tuple(exponents),
        rows=table,
        neg_unit_label=right[-1][0],  # 1 * (-1)
    )


# -- the order rule and the blocking involutions ----------------------------


def broken_schur_relation(m: int, kind: CoverKind) -> Optional[str]:
    """The first of Schur's relations on t_i = (e_i - e_(i+1))/sqrt(2), i < m,
    that fails, or None: t_i^2 = eps (-1 tilde, +1 hat), (t_i t_(i+1))^3 = eps
    and (t_i t_j)^2 = -1 for |i - j| >= 2. For m >= 4 they present a group of
    order 2 * m! (Schur 1911); the t_i map onto Sym(m) and hold
    (t_1 t_3)^2 = -1 != +1, so they generate all of it: the double cover."""
    t = [pair_vector(i, i + 1, m, kind) for i in range(1, m)]
    eps = -1 if kind is CoverKind.TILDE else 1
    square, minus_one = unit(eps, m, kind), unit(-1, m, kind)
    for i, ti in enumerate(t, start=1):
        if pin_mul(ti, ti) != square:
            return f"t_{i}^2 != {eps:+d}"
        if i < m - 1:
            x = pin_mul(ti, t[i])
            if pin_mul(pin_mul(x, x), x) != square:
                return f"(t_{i} t_{i + 1})^3 != {eps:+d}"
        for j in range(i + 2, m):
            x = pin_mul(ti, t[j - 1])
            if pin_mul(x, x) != minus_one:
                return f"(t_{i} t_{j})^2 != -1"
    return None


def predicted_lift_order(r: int, kind: CoverKind) -> int:
    """Order of either lift of a product of r >= 1 disjoint transpositions.
    By conjugacy take (1 2)(3 4)...(2r-1 2r), lifted to +-t_1 t_3 ... t_(2r-1).
    Disjoint t's anticommute, so its square is eps^r (-1)^(r(r-1)/2) with
    eps = t_i^2 (-1 tilde, +1 hat): order 4 when that is -1, else 2."""
    if r < 1:
        raise ValueError("r must be at least 1")
    eps = -1 if kind is CoverKind.TILDE else 1
    return 4 if eps**r * (-1) ** (r * (r - 1) // 2) == -1 else 2


def transposition_product(m: int, r: int) -> Perm:
    """(1 2)(3 4)...(2r-1 2r) in degree m."""
    if not 0 <= 2 * r <= m:
        raise ValueError(f"{r} disjoint transpositions do not fit in degree {m}")
    return from_cycles(m, [(i, i + 1) for i in range(1, 2 * r, 2)])


def canonical_fpf_involution(m: int) -> Perm:
    """(1 2)(3 4)...(m-1 m) for even m."""
    if m % 2 != 0 or m < 2:
        raise ValueError("an even degree is required")
    return transposition_product(m, m // 2)


def lift_orders(p: Perm, kind: CoverKind) -> tuple[int, int]:
    """Orders of the two preimages of p: lift(p, kind) and its negation."""
    x = lift(p, kind)
    return order(x), order(pin_neg(x))


@dataclass(frozen=True)
class OrderRuleRow:
    r: int
    expected_order: int
    observed_orders: tuple[int, ...]
    elements_checked: int
    lifts_agree: bool
    table_matches_direct: Optional[bool]

    @property
    def passed(self) -> bool:
        table_ok = self.table_matches_direct is not False
        return (
            self.observed_orders == (self.expected_order,)
            and self.lifts_agree
            and table_ok
        )


@dataclass(frozen=True)
class OrderRuleReport:
    m: int
    kind: CoverKind
    mode: str
    rows: tuple[OrderRuleRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)



def order_rule_table(m: int, kind: CoverKind, mode: str = "auto") -> OrderRuleReport:
    """Orders of both lifts of products of r disjoint transpositions, for
    each r <= m/2, against `predicted_lift_order`.

    Direct mode lifts only the canonical product (1 2)(3 4)...(2r-1 2r), up
    to m = DIRECT_LIFT_MAX_M, which caps what `order` multiplies. That
    suffices by conjugacy: every product of r disjoint transpositions is a
    conjugate s^-1 q s of the canonical one q, and conjugating by a lift of
    s carries the two lifts of q onto the two lifts of s^-1 q s without
    changing their orders. Exhaustive mode (m within the enumeration guard)
    tests that argument: it lifts every product of the cycle type and
    cross-checks the orders of both lifts against the interned
    multiplication table of the enumerated cover.
    """
    if mode == "auto":
        mode = "exhaustive" if m <= COVER_ENUM_MAX_M else "direct"
    if mode not in ("exhaustive", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    if m < 2:
        raise ValueError(f"m={m} is below the lower limit 2: no transposition fits")
    if mode == "direct" and m > DIRECT_LIFT_MAX_M:
        raise ValueError(f"direct mode supports m up to {DIRECT_LIFT_MAX_M}")
    cover = None
    classes: dict[tuple[int, ...], list[Perm]] = {}
    if mode == "exhaustive":
        cover = enumerate_cover(m, kind)
        # one label per permutation; the other preimage is its negation
        preimage = {tuple(p): g for g, p in enumerate(cover.group.phi.tolist())}
        for p in enumerate_sym(m):
            classes.setdefault(cycle_type(p), []).append(p)
    rows = []
    for r in range(1, m // 2 + 1):
        q = transposition_product(m, r)
        perms = classes[cycle_type(q)] if cover is not None else [q]
        observed: set[int] = set()
        lifts_agree = True
        table_ok = True
        for p in perms:
            orders = lift_orders(p, kind)
            observed.update(orders)
            lifts_agree &= orders[0] == orders[1]
            if cover is not None:
                g = preimage[p]
                by_table = (cover.order_by_table(g), cover.order_by_table(cover.negate_label(g)))
                table_ok &= sorted(by_table) == sorted(orders)
        rows.append(
            OrderRuleRow(
                r=r,
                expected_order=predicted_lift_order(r, kind),
                observed_orders=tuple(sorted(observed)),
                elements_checked=2 * len(perms),
                lifts_agree=lifts_agree,
                table_matches_direct=table_ok if cover is not None else None,
            )
        )
    return OrderRuleReport(m=m, kind=kind, mode=mode, rows=tuple(rows))


def blocking_involutions(cover: SpinCover) -> tuple[int, ...]:
    """Labels of order-2 cover elements whose colour action is fixed-point-
    free; any one of them rules the cover out as a supplement."""
    G = cover.group
    labels = np.array(G.involutions(), dtype=np.int64)
    fpf = (G.phi[labels] != np.arange(1, G.m + 1)).all(axis=1)
    return tuple(labels[fpf].tolist())
