"""The two double covers of a symmetric group, built exactly.

Working model: the Clifford algebra on generators e_1..e_m with either
e_i^2 = -1 (the "tilde" kind) or e_i^2 = +1 (the "hat" kind) and
e_i e_j = -e_j e_i for i != j. The unit vector (e_a - e_b)/sqrt(2)
conjugates the basis vectors by the transposition (a b) up to sign, so
products of such vectors form a group that maps onto the symmetric group
with kernel {+1, -1}: a double cover. Which kind carries which classical
name is pinned down empirically by the order rule below: in the tilde
cover a product of r disjoint transpositions lifts to an element of order
4 exactly when r = 1 or 2 (mod 4), in the hat cover exactly when
r = 2 or 3 (mod 4).

A product of k pair vectors is (sqrt 2)^(-k) times an integer combination
of at most 2^k blades, so every element is stored that way: one exponent
k and a sparse tuple of (blade, integer) pairs, in a unique normal form.
Group elements therefore compare and hash by value and the enumeration
can intern them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .equivariant import FiniteGroup, cayley_table
from .perms import (
    Perm,
    compose,
    cycle_type,
    cycles,
    enumerate_sym,
    fixed_points,
    from_cycles,
    identity,
    is_perm,
    transposition,
)

COVER_ENUM_MAX_M = 6  # 2 * 6! = 1440 elements is the enumeration ceiling
DIRECT_LIFT_MAX_M = 12  # a lift holds up to 2^(m-1) blades; 12 keeps products small


class CoverKind(enum.Enum):
    """Blade-square convention; each value yields one of the two covers."""

    TILDE = "tilde"  # e_i^2 = -1
    HAT = "hat"  # e_i^2 = +1

    @property
    def square_sign(self) -> int:
        return -1 if self is CoverKind.TILDE else 1


@dataclass(frozen=True)
class CliffordScalar:
    """Exact view of one coefficient n * (sqrt 2)^(-k), k >= 0, in normal form.

    The reduction n * (sqrt 2)^(-k) = (n/2) * (sqrt 2)^(-(k-2)) is applied
    while n is even and k >= 2, so equal values have equal fields.
    """

    n: int
    k: int = 0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("the root-two exponent must be nonnegative")
        n, k = self.n, self.k
        if n == 0:
            k = 0
        else:
            while n % 2 == 0 and k >= 2:
                n //= 2
                k -= 2
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def __bool__(self) -> bool:
        return self.n != 0

    def as_exact(self) -> tuple[Fraction, Fraction]:
        """The value as a + b*sqrt(2) with exact rational a, b."""
        if self.k % 2 == 0:
            return Fraction(self.n, 2 ** (self.k // 2)), Fraction(0)
        return Fraction(0), Fraction(self.n, 2 ** ((self.k + 1) // 2))

    def as_float(self) -> float:
        a, b = self.as_exact()
        return float(a) + float(b) * math.sqrt(2)

    def __repr__(self) -> str:
        if self.k == 0:
            return f"CliffordScalar({self.n})"
        return f"CliffordScalar({self.n}, {self.k})"


# perfbench/tracing.py counts a product's blades as the coeffs not equal to this
SCALAR_ZERO = CliffordScalar(0)


def blade_mul(a: int, b: int, kind: CoverKind) -> tuple[int, int]:
    """Product of two basis blades (bitmask over generators, bit i-1 for
    e_i): the symmetric-difference blade and the accumulated sign from
    anticommutations and squared generators."""
    sign = 1
    acc = a
    rest = b
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if (acc >> (i + 1)).bit_count() % 2:
            sign = -sign
        if acc & low:
            sign *= kind.square_sign
            acc &= ~low
        else:
            acc |= low
        rest ^= low
    return acc, sign


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
        if not 1 <= self.m <= DIRECT_LIFT_MAX_M:
            raise ValueError(f"m must be in 1..{DIRECT_LIFT_MAX_M}")
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

    def blades(self) -> Iterator[tuple[int, CliffordScalar]]:
        for mask, n in self.coeffs:
            yield mask, CliffordScalar(n, self.k)

    def blade_count(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c!r}*e[{mask:b}]" for mask, c in self.blades()]
        return f"PinElement({self.kind.value}, m={self.m}: {' + '.join(terms)})"


def _signed_blade(x: PinElement) -> Optional[tuple[int, int]]:
    """(blade, n) when x is +1 or -1 times a single blade, else None."""
    if x.k == 0 and len(x.coeffs) == 1 and x.coeffs[0][1] in (1, -1):
        return x.coeffs[0]
    return None


def unit(sign: int, m: int, kind: CoverKind) -> PinElement:
    """The scalar +1 or -1."""
    if sign not in (1, -1):
        raise ValueError("unit takes sign +1 or -1")
    return PinElement(kind, m, 0, ((0, sign),))


def basis_vector(i: int, m: int, kind: CoverKind) -> PinElement:
    """The generator e_i."""
    if not 1 <= i <= m:
        raise ValueError(f"generator index {i} out of range 1..{m}")
    return PinElement(kind, m, 0, ((1 << (i - 1), 1),))


def pair_vector(a: int, b: int, m: int, kind: CoverKind) -> PinElement:
    """(e_a - e_b)/sqrt(2): the unit vector conjugating by (a b)."""
    if a == b or not (1 <= a <= m and 1 <= b <= m):
        raise ValueError(f"invalid pair ({a}, {b}) for m={m}")
    return PinElement(kind, m, 1, ((1 << (a - 1), 1), (1 << (b - 1), -1)))


def coxeter_generator(i: int, m: int, kind: CoverKind) -> PinElement:
    """(e_i - e_{i+1})/sqrt(2), projecting to the transposition (i, i+1)."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"generator index {i} out of range 1..{m - 1}")
    return pair_vector(i, i + 1, m, kind)


def pin_mul(a: PinElement, b: PinElement) -> PinElement:
    """Bilinear extension of blade multiplication; the exponents add."""
    if a.kind is not b.kind or a.m != b.m:
        raise ValueError("elements live in different algebras")
    acc: dict[int, int] = {}
    for mask_a, na in a.coeffs:
        for mask_b, nb in b.coeffs:
            mask, sign = blade_mul(mask_a, mask_b, a.kind)
            acc[mask] = acc.get(mask, 0) + sign * na * nb
    return PinElement(a.kind, a.m, a.k + b.k, tuple(acc.items()))


def pin_neg(x: PinElement) -> PinElement:
    return replace(x, coeffs=tuple((mask, -n) for mask, n in x.coeffs))


def reversal(x: PinElement) -> PinElement:
    """Reverse the generator order inside every blade: a size-s blade picks
    up the sign (-1)^(s(s-1)/2), which is -1 exactly when s = 2, 3 (mod 4)."""
    return replace(
        x, coeffs=tuple((mask, -n if mask.bit_count() % 4 >= 2 else n) for mask, n in x.coeffs)
    )


def pin_inverse(x: PinElement) -> PinElement:
    """Inverse of a unit product of vectors, via x * reversal(x) = +-1."""
    rev = reversal(x)
    term = _signed_blade(pin_mul(x, rev))
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
        term = _signed_blade(pin_mul(pin_mul(inv_x, basis_vector(i, x.m, x.kind)), x))
        if term is None or term[0].bit_count() != 1:
            raise ValueError("conjugate of a generator is not a signed generator")
        images.append(term[0].bit_length())
    p = tuple(images)
    if not is_perm(p):
        raise ValueError("conjugation does not permute the generators")
    return p


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
    """An enumerated double cover: the interned FiniteGroup (phi = the
    projection), the algebra element behind every label, and the label of
    the central -1."""

    kind: CoverKind
    m: int
    group: FiniteGroup
    elements: tuple[PinElement, ...]
    index: Mapping[PinElement, int]
    neg_unit_label: int

    def label_of(self, x: PinElement) -> Optional[int]:
        return self.index.get(x)

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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "m": self.m,
            "group": self.group.to_json_dict(),
            "neg_unit_label": self.neg_unit_label,
            "elements": [
                [[mask, c.n, c.k] for mask, c in x.blades()] for x in self.elements
            ],
        }


@functools.lru_cache(maxsize=None)
def enumerate_cover(m: int, kind: CoverKind) -> SpinCover:
    """Close {pair generators} union {-1} under multiplication, intern the
    elements in discovery order (identity first) and build the full
    multiplication table. The closure must have exactly 2 * m! elements,
    and FiniteGroup proves the table a group."""
    if not 2 <= m <= COVER_ENUM_MAX_M:
        raise ValueError(f"m must be in 2..{COVER_ENUM_MAX_M} for enumeration")
    gens = [coxeter_generator(i, m, kind) for i in range(1, m)] + [unit(-1, m, kind)]
    gen_projs = [transposition(m, i, i + 1) for i in range(1, m)] + [identity(m)]
    elements: list[PinElement] = [unit(1, m, kind)]
    index: dict[PinElement, int] = {elements[0]: 0}
    phi: list[Perm] = [identity(m)]
    steps: list[tuple[int, int, int]] = []  # (y, p, g): y = p * gens[g]
    right: list[list[int]] = [[] for _ in gens]
    target = 2 * math.factorial(m)
    i = 0
    while i < len(elements):
        x = elements[i]
        for gi, g in enumerate(gens):
            y = pin_mul(x, g)
            j = index.get(y)
            if j is None:
                j = len(elements)
                if j >= target:
                    raise RuntimeError(f"closure exceeds the expected size {target}")
                index[y] = j
                elements.append(y)
                phi.append(compose(phi[i], gen_projs[gi]))
                steps.append((j, i, gi))
            right[gi].append(j)
        i += 1
    size = len(elements)
    if size != target:
        raise RuntimeError(f"closure size {size} != 2 * {m}! = {target}")
    return SpinCover(
        kind=kind,
        m=m,
        group=FiniteGroup(mul=cayley_table(right, steps), phi=tuple(phi)),
        elements=tuple(elements),
        index=index,
        neg_unit_label=index[unit(-1, m, kind)],
    )


# -- the order rule and the supplement condition ----------------------------


def predicted_lift_order(r: int, kind: CoverKind) -> int:
    """Order of either lift of a product of r >= 1 disjoint transpositions:
    4 when r = 1, 2 (mod 4) in the tilde cover or r = 2, 3 (mod 4) in the
    hat cover, else 2."""
    if r < 1:
        raise ValueError("r must be at least 1")
    residue = r % 4
    wanted = (1, 2) if kind is CoverKind.TILDE else (2, 3)
    return 4 if residue in wanted else 2


def canonical_fpf_involution(m: int) -> Perm:
    """(1 2)(3 4)...(m-1 m) for even m."""
    if m % 2 != 0 or m < 2:
        raise ValueError("an even degree is required")
    return from_cycles(m, [(i, i + 1) for i in range(1, m, 2)])


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

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "expected_order": self.expected_order,
            "observed_orders": list(self.observed_orders),
            "elements_checked": self.elements_checked,
            "lifts_agree": self.lifts_agree,
            "table_matches_direct": self.table_matches_direct,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class OrderRuleReport:
    m: int
    kind: CoverKind
    mode: str
    rows: tuple[OrderRuleRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "kind": self.kind.value,
            "mode": self.mode,
            "rows": [row.to_json_dict() for row in self.rows],
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"lift orders of r disjoint transpositions, m={self.m}, "
            f"{self.kind.value} cover ({self.mode} mode)",
            f"{'r':>3} {'order':>6} {'expected':>9} {'checked':>8} verdict",
        ]
        for row in self.rows:
            observed = ",".join(map(str, row.observed_orders))
            verdict = "pass" if row.passed else "FAIL"
            lines.append(
                f"{row.r:>3} {observed:>6} {row.expected_order:>9} "
                f"{row.elements_checked:>8} {verdict}"
            )
        return "\n".join(lines)


def _cycle_type_perms(m: int, r: int) -> list[Perm]:
    wanted = tuple(sorted([1] * (m - 2 * r) + [2] * r))
    return [p for p in enumerate_sym(m) if cycle_type(p) == wanted]


def order_rule_table(m: int, kind: CoverKind, mode: str = "auto") -> OrderRuleReport:
    """Orders of both lifts of every product of r disjoint transpositions,
    for each r <= m/2.

    Exhaustive mode (m within the enumeration guard) walks every element of
    the relevant cycle type in the enumerated cover and cross-checks the
    direct power computation against the interned multiplication table;
    direct mode lifts one canonical representative per r and is available
    up to m = 12.
    """
    if mode == "auto":
        mode = "exhaustive" if m <= COVER_ENUM_MAX_M else "direct"
    if mode not in ("exhaustive", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = []
    if mode == "exhaustive":
        cover = enumerate_cover(m, kind)
        for r in range(1, m // 2 + 1):
            observed: set[int] = set()
            checked = 0
            lifts_agree = True
            table_ok = True
            for p in _cycle_type_perms(m, r):
                x = lift(p, kind)
                label = cover.label_of(x)
                if label is None:
                    raise RuntimeError("lift missing from the enumerated cover")
                o_direct = order(x)
                o_table = cover.order_by_table(label)
                o_neg = cover.order_by_table(cover.negate_label(label))
                table_ok &= o_direct == o_table
                lifts_agree &= o_table == o_neg
                observed |= {o_table, o_neg}
                checked += 2
            rows.append(
                OrderRuleRow(
                    r=r,
                    expected_order=predicted_lift_order(r, kind),
                    observed_orders=tuple(sorted(observed)),
                    elements_checked=checked,
                    lifts_agree=lifts_agree,
                    table_matches_direct=table_ok,
                )
            )
    else:
        if m > DIRECT_LIFT_MAX_M:
            raise ValueError(f"direct mode supports m up to {DIRECT_LIFT_MAX_M}")
        for r in range(1, m // 2 + 1):
            p = from_cycles(m, [(2 * i + 1, 2 * i + 2) for i in range(r)])
            x = lift(p, kind)
            o1, o2 = order(x), order(pin_neg(x))
            rows.append(
                OrderRuleRow(
                    r=r,
                    expected_order=predicted_lift_order(r, kind),
                    observed_orders=tuple(sorted({o1, o2})),
                    elements_checked=2,
                    lifts_agree=o1 == o2,
                    table_matches_direct=None,
                )
            )
    return OrderRuleReport(m=m, kind=kind, mode=mode, rows=tuple(rows))


def blocking_involutions(cover: SpinCover) -> tuple[int, ...]:
    """Labels of order-2 cover elements whose colour action is fixed-point-
    free; any one of them rules the cover out as a supplement."""
    phi, ident = cover.group.phi, identity(cover.m)
    return tuple(
        g for g in cover.group.involutions() if phi[g] != ident and not fixed_points(phi[g])
    )


def supplement_condition(m: int, kind: CoverKind) -> bool:
    """Whether every order-2 element of the enumerated cover either acts
    trivially on the colours or fixes some colour."""
    return not blocking_involutions(enumerate_cover(m, kind))


def supplement_condition_direct(m: int, kind: CoverKind) -> bool:
    """Enumeration-free version for even m: the fixed-point-free involutions
    are exactly the products of m/2 disjoint transpositions, all conjugate,
    so the cover passes iff their lifts have order 4."""
    if m % 2 != 0 or m < 2:
        raise ValueError("an even palette size is required")
    return order(lift(canonical_fpf_involution(m), kind)) == 4
