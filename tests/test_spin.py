import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coloursym import spin
from coloursym.graphs import MAX_PALETTE
from coloursym.perms import (
    cycle_type,
    enumerate_sym,
    from_cycles,
    identity,
    is_involution,
    transposition,
)
from coloursym.spin import (
    DIRECT_LIFT_MAX_M,
    CoverKind,
    PinElement,
    SpinCover,
    blade_mul,
    blocking_involutions,
    broken_schur_relation,
    canonical_fpf_involution,
    enumerate_cover,
    lift,
    lift_orders,
    order,
    order_rule_table,
    pair_vector,
    pin_mul,
    pin_neg,
    predicted_lift_order,
    transposition_product,
    unit,
)

from helpers import (
    associative_on_all_triples,
    cover_index,
    phi_homomorphic_on_all_pairs,
    pin_inverse,
    project,
    reversal,
)

TILDE, HAT = CoverKind.TILDE, CoverKind.HAT


# -- blades ------------------------------------------------------------------


def test_blade_squares():
    assert blade_mul(0b1, 0b1, HAT) == (0, 1)
    assert blade_mul(0b1, 0b1, TILDE) == (0, -1)


def test_blade_anticommutation():
    b1, s1 = blade_mul(0b01, 0b10, HAT)
    b2, s2 = blade_mul(0b10, 0b01, HAT)
    assert b1 == b2 == 0b11
    assert s1 == -s2


def test_blade_mul_matches_dense_oracle():
    # oracle: multiply generator sequences symbol by symbol
    def slow(a_bits, b_bits, kind):
        seq = [i for i in range(a_bits.bit_length()) if a_bits >> i & 1] + [
            i for i in range(b_bits.bit_length()) if b_bits >> i & 1
        ]
        sign = 1
        changed = True
        while changed:
            changed = False
            for i in range(len(seq) - 1):
                if seq[i] > seq[i + 1]:
                    seq[i], seq[i + 1] = seq[i + 1], seq[i]
                    sign = -sign
                    changed = True
                elif seq[i] == seq[i + 1]:
                    sign *= -1 if kind is TILDE else 1  # e_i^2
                    del seq[i : i + 2]
                    changed = True
                    break
        mask = 0
        for i in seq:
            mask |= 1 << i
        return mask, sign

    # every pair of 6-bit blades, then seeded pairs at the direct lift's full width
    rng = random.Random(12)
    wide = [(rng.getrandbits(DIRECT_LIFT_MAX_M), rng.getrandbits(DIRECT_LIFT_MAX_M)) for _ in range(2000)]
    for kind in (TILDE, HAT):
        for a, b in [*itertools.product(range(64), repeat=2), *wide]:
            assert blade_mul(a, b, kind) == slow(a, b, kind), (a, b, kind)


# -- algebra elements -----------------------------------------------------------


def test_unit_laws():
    one = unit(1, 3, TILDE)
    x = pair_vector(1, 2, 3, TILDE)
    assert pin_mul(x, one) == x
    assert pin_mul(one, x) == x
    assert pin_mul(unit(-1, 3, TILDE), unit(-1, 3, TILDE)) == one


def test_generator_squares():
    assert pin_mul(pair_vector(1, 2, 2, TILDE), pair_vector(1, 2, 2, TILDE)) == unit(-1, 2, TILDE)
    assert pin_mul(pair_vector(1, 2, 2, HAT), pair_vector(1, 2, 2, HAT)) == unit(1, 2, HAT)


def test_disjoint_generators_anticommute():
    a = pair_vector(1, 2, 4, HAT)
    b = pair_vector(3, 4, 4, HAT)
    assert pin_mul(a, b) == pin_neg(pin_mul(b, a))


def test_generator_has_two_blades():
    g = pair_vector(2, 3, 5, TILDE)
    assert len(g.coeffs) == 2
    assert project(g) == transposition(5, 2, 3)


def test_pair_vector_projects_to_transposition():
    for kind in (TILDE, HAT):
        assert project(pair_vector(1, 4, 5, kind)) == transposition(5, 1, 4)


def test_degree_is_checked_before_the_coefficients_are_allocated():
    # m is checked before anything else about the element
    with pytest.raises(ValueError, match=rf"1\.\.{MAX_PALETTE}"):
        unit(1, 256, TILDE)


def test_pin_mul_rejects_mixed_algebras():
    with pytest.raises(ValueError):
        pin_mul(unit(1, 3, TILDE), unit(1, 3, HAT))
    with pytest.raises(ValueError):
        pin_mul(unit(1, 3, TILDE), unit(1, 4, TILDE))


def test_pin_element_rejects_mixed_parity():
    # the scalar 1 (even) plus e_1 (odd)
    with pytest.raises(ValueError, match="even and odd"):
        PinElement(kind=HAT, m=3, k=0, coeffs=((0, 1), (0b1, 1)))


def test_pin_element_rejects_zero_and_malformed_blades():
    with pytest.raises(ValueError, match="zero element"):
        PinElement(HAT, 3, 0, ())
    with pytest.raises(ValueError, match="zero element"):
        PinElement(HAT, 3, 2, ((0b11, 0),))
    with pytest.raises(ValueError, match="distinct"):
        PinElement(HAT, 3, 0, ((0b11, 1), (0b11, 1)))
    with pytest.raises(ValueError, match="distinct"):
        PinElement(HAT, 3, 0, ((0b1000, 1),))
    with pytest.raises(ValueError, match="distinct"):
        PinElement(HAT, 3, 0, ((-1, 1),))
    with pytest.raises(ValueError, match="nonnegative"):
        PinElement(HAT, 3, -1, ((0, 1),))
    with pytest.raises(ValueError, match=rf"1\.\.{MAX_PALETTE}"):
        PinElement(HAT, 256, 0, ((0, 1),))


pin_terms = st.dictionaries(
    st.sampled_from([0b0, 0b11, 0b101, 0b110, 0b1001, 0b1010, 0b1100, 0b1111]),  # even blades
    st.integers(-20, 20),
).filter(lambda d: any(d.values()))


@given(pin_terms, st.integers(0, 5), st.integers(0, 3), st.randoms(use_true_random=False))
def test_pin_element_normal_form(terms, k, j, rng):
    x = PinElement(TILDE, 4, k, tuple(terms.items()))
    # the same value with every integer scaled by 2^j and k raised by 2j,
    # listed in another order and with zero entries left in
    entries = [(mask, n * 2**j) for mask, n in terms.items()]
    entries += [(mask, 0) for mask in (0b11, 0b1111) if mask not in terms]
    rng.shuffle(entries)
    y = PinElement(TILDE, 4, k + 2 * j, tuple(entries))
    assert y == x and hash(y) == hash(x)
    assert (y.k, y.coeffs) == (x.k, x.coeffs)
    assert [mask for mask, _ in x.coeffs] == sorted(mask for mask, n in terms.items() if n)
    assert all(n for _, n in x.coeffs)
    assert x.k < 2 or any(n % 2 for _, n in x.coeffs)


def test_pin_mul_associative_exhaustive_m3():
    elems = enumerate_cover(3, TILDE).elements
    for a, b, c in itertools.product(elems, elems, elems):
        assert pin_mul(pin_mul(a, b), c) == pin_mul(a, pin_mul(b, c))


def test_pin_mul_associative_sampled_m4():
    import random as pyrandom

    elems = enumerate_cover(4, HAT).elements
    rng = pyrandom.Random("assoc-sample")
    for _ in range(300):
        a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert pin_mul(pin_mul(a, b), c) == pin_mul(a, pin_mul(b, c))


def test_reversal_and_inverse():
    for kind in (TILDE, HAT):
        x = lift((2, 3, 1, 4), kind)
        assert pin_mul(x, pin_inverse(x)) == unit(1, 4, kind)
        assert pin_mul(pin_inverse(x), x) == unit(1, 4, kind)
        assert reversal(reversal(x)) == x


def test_pin_inverse_rejects_non_units():
    # 1 + e1 e2 is not a unit product
    with pytest.raises(ValueError):
        pin_inverse(PinElement(kind=HAT, m=3, k=0, coeffs=((0, 1), (0b11, 1))))


# -- projection -------------------------------------------------------------------


def test_project_kernel_elements():
    assert project(unit(-1, 4, TILDE)) == identity(4)
    assert project(unit(1, 4, HAT)) == identity(4)


def test_project_is_homomorphism_m3():
    cover = enumerate_cover(3, HAT)
    for a in cover.elements:
        for b in cover.elements:
            pa, pb = project(a), project(b)
            composed = tuple(pb[pa[i] - 1] for i in range(3))
            assert project(pin_mul(a, b)) == composed


def test_project_matches_cover_phi():
    for kind in (TILDE, HAT):
        cover = enumerate_cover(3, kind)
        for g, x in enumerate(cover.elements):
            assert project(x) == cover.group.phi[g]


def test_project_rejects_non_group_elements():
    # the scalar 2
    with pytest.raises(ValueError):
        project(PinElement(kind=HAT, m=3, k=0, coeffs=((0, 2),)))


# -- lifts and orders ----------------------------------------------------------------


def test_lift_identity():
    assert lift(identity(4), TILDE) == unit(1, 4, TILDE)


def test_lift_round_trip_sym4():
    for kind in (TILDE, HAT):
        for p in enumerate_sym(4):
            assert project(lift(p, kind)) == p


def test_lift_orders_single_transposition():
    assert order(lift(transposition(2, 1, 2), TILDE)) == 4
    assert order(lift(transposition(2, 1, 2), HAT)) == 2


def test_order_of_minus_one():
    assert order(unit(-1, 3, TILDE)) == 2
    assert order(unit(1, 3, TILDE)) == 1


def test_lift_order_r2():
    p = from_cycles(4, [(1, 2), (3, 4)])
    assert order(lift(p, TILDE)) == 4
    assert order(lift(p, HAT)) == 4


def test_lift_order_r4_is_two_for_both_kinds():
    p = from_cycles(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    assert order(lift(p, TILDE)) == 2
    assert order(lift(p, HAT)) == 2


def test_both_lifts_of_involutions_have_equal_order():
    # for products of disjoint transpositions x^2 = (-x)^2, so the two
    # preimages agree in order (false for e.g. 3-cycles, whose lifts have
    # orders 3 and 6)
    for kind in (TILDE, HAT):
        for p in enumerate_sym(4):
            if is_involution(p):
                x = lift(p, kind)
                assert order(x) == order(pin_neg(x))


# -- cover enumeration -----------------------------------------------------------------


def test_cover_m2_tilde_is_cyclic_of_order_four():
    cover = enumerate_cover(2, TILDE)
    assert cover.group.size == 4
    assert sorted(cover.order_by_table(g) for g in range(4)) == [1, 2, 4, 4]


def test_cover_m2_hat_is_klein_four():
    cover = enumerate_cover(2, HAT)
    assert cover.group.size == 4
    assert sorted(cover.order_by_table(g) for g in range(4)) == [1, 2, 2, 2]


def test_cover_sizes():
    assert enumerate_cover(4, TILDE).group.size == 48
    assert enumerate_cover(4, HAT).group.size == 48
    assert enumerate_cover(3, HAT).group.size == 12


def test_cover_passes_group_axioms():
    # building the FiniteGroup proved the axioms; the oracles check them again
    for m, kind in ((3, HAT), (4, TILDE), (4, HAT)):
        G = enumerate_cover(m, kind).group
        assert associative_on_all_triples(G.mul)
        assert phi_homomorphic_on_all_pairs(G.mul, G.phi)


def test_cover_m5_passes_exact_group_axioms():
    cover = enumerate_cover(5, HAT)
    assert cover.group.size == 240
    assert len(cover.group.gens) == 2  # lifts of (1 2) and of a 5-cycle
    assert associative_on_all_triples(cover.group.mul)
    assert phi_homomorphic_on_all_pairs(cover.group.mul, cover.group.phi)


def test_cover_guard():
    with pytest.raises(ValueError):
        enumerate_cover(7, TILDE)
    with pytest.raises(ValueError):
        enumerate_cover(1, TILDE)


def test_cover_projection_kernel_is_centre():
    for m in (2, 3, 4):
        for kind in (TILDE, HAT):
            cover = enumerate_cover(m, kind)
            kernel = cover.group.kernel()
            assert kernel == tuple(sorted((0, cover.neg_unit_label)))


def test_cover_two_lifts_per_permutation():
    for kind in (TILDE, HAT):
        cover = enumerate_cover(3, kind)
        counts: dict = {}
        for g in range(cover.group.size):
            counts[cover.group.phi[g]] = counts.get(cover.group.phi[g], 0) + 1
        assert set(counts.values()) == {2}
        index = cover_index(cover)
        for p in enumerate_sym(3):
            x = lift(p, kind)
            lbl = index.get(x)
            neg_lbl = index.get(pin_neg(x))
            assert lbl is not None and neg_lbl is not None
            assert cover.negate_label(lbl) == neg_lbl


def test_cover_order_histogram_matches_direct_oracle():
    for kind in (TILDE, HAT):
        cover = enumerate_cover(4, kind)
        for g, x in enumerate(cover.elements):
            assert cover.order_by_table(g) == order(x)


def test_cover_involution_squares_are_central():
    cover = enumerate_cover(4, TILDE)
    one, neg = 0, cover.neg_unit_label
    for g in range(cover.group.size):
        p = cover.group.phi[g]
        if p == identity(4) or is_involution(p):
            sq = cover.group.product(g, g)
            assert sq in (one, neg)
            assert cover.order_by_table(g) in (1, 2, 4)


# sha256 of each cover's own fields, as cover_fields_sha256 hashes them:
# pins the element order, the multiplication table and every coefficient
COVER_JSON_SHA256 = {
    (2, TILDE): "da5e966639c4a8f14e18a751ec201defe8234603a8d4bb026b0448ef190b0772",
    (2, HAT): "a77332460ab9cd2a41d64651a0bffd75464be120564e05a2395c0edff60c6a81",
    (3, TILDE): "f71afc671b928f470b7d12319bfb9d2de168c6123c66ed3f0e6fd3ec108993af",
    (3, HAT): "fdb43348cbf72ba093b39b1f553ecbf64408796c96f233a9294e9e893a83a81a",
    (4, TILDE): "ebfe2b685b280d141487dfce0dfb4864827f8e4127a2cd42d07f6e8b74b72946",
    (4, HAT): "cb36e283e8d633740e4a037fefc2768d92bdab50df69c86ae8a968d0abf66b58",
    (5, TILDE): "0258e377de9993839fd2b5ced86729f0498acb93603fa30e9bc7ac2d1540b7aa",
    (5, HAT): "46fb04a2acf76a425061b7e487bdbe62ed6e9db7a00a2a4b88aed520537274ae",
    (6, TILDE): "077711282f7474eb1729851d42bd347b2291f02a6b7aa467093ed6947b6d3a91",
    (6, HAT): "d720320e57ea15fd3e19324eeb322ca07cfce3b99ec5de27a43492323d115bc7",
}


def cover_fields_sha256(cover: SpinCover) -> str:
    """The exponents, projections and label of -1 as JSON, then the shape and
    little-endian int64 values of the blade rows and the multiplication table."""
    digest = hashlib.sha256()
    digest.update(json.dumps([cover.exponents, cover.group.phi, cover.neg_unit_label]).encode())
    for table in (cover.rows, cover.group.mul):
        digest.update(repr(table.shape).encode())
        digest.update(np.ascontiguousarray(table, dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("m, kind", list(COVER_JSON_SHA256))
def test_cover_json_keeps_its_bytes(m, kind):
    # named for the cover JSON export it pinned before the export was deleted
    assert cover_fields_sha256(enumerate_cover(m, kind)) == COVER_JSON_SHA256[m, kind]


# -- the order rule ----------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 24, 32])
def test_schur_relations_hold_with_the_kinds_square(m):
    # t_i^2 = -1 in the tilde kind and +1 in the hat kind
    assert broken_schur_relation(m, TILDE) is None
    assert broken_schur_relation(m, HAT) is None
    t = pair_vector(1, 2, m, TILDE), pair_vector(1, 2, m, HAT)
    assert [pin_mul(x, x) for x in t] == [unit(-1, m, TILDE), unit(1, m, HAT)]


def test_schur_relations_name_the_first_that_fails(monkeypatch):
    real = pair_vector

    def swapped(a, b, m, kind):  # t_2 = (e_2 + e_3)/sqrt(2) meets t_3 at 60 degrees
        x = real(a, b, m, kind)
        return PinElement(kind, m, 1, ((0b10, 1), (0b100, 1))) if (a, b) == (2, 3) else x

    monkeypatch.setattr(spin, "pair_vector", swapped)
    assert broken_schur_relation(4, TILDE) == "(t_2 t_3)^3 != -1"
    assert broken_schur_relation(4, HAT) == "(t_2 t_3)^3 != +1"

    def scaled(a, b, m, kind):  # t_1 = e_1 - e_2, twice too long
        return PinElement(kind, m, 0, ((0b1, 1), (0b10, -1))) if (a, b) == (1, 2) else real(a, b, m, kind)

    monkeypatch.setattr(spin, "pair_vector", scaled)
    assert broken_schur_relation(4, TILDE) == "t_1^2 != -1"

    def repeated(a, b, m, kind):  # t_3 = t_1, which commutes with t_1
        return real(1, 2, m, kind) if (a, b) == (3, 4) else real(a, b, m, kind)

    monkeypatch.setattr(spin, "pair_vector", repeated)
    assert broken_schur_relation(4, HAT) == "(t_1 t_3)^2 != -1"


@pytest.mark.parametrize("m", [8, 10, 12])
@pytest.mark.parametrize("kind", [TILDE, HAT])
def test_relation_derived_order_matches_the_direct_lift(m, kind):
    # the lift of (1 2)(3 4)...(m-1 m), multiplied out until it reaches +1
    assert broken_schur_relation(m, kind) is None
    orders = lift_orders(canonical_fpf_involution(m), kind)
    assert orders == (predicted_lift_order(m // 2, kind),) * 2


def test_predicted_lift_order_rule():
    assert [predicted_lift_order(r, TILDE) for r in (1, 2, 3, 4, 5, 6)] == [4, 4, 2, 2, 4, 4]
    assert [predicted_lift_order(r, HAT) for r in (1, 2, 3, 4, 5, 6)] == [2, 4, 4, 2, 2, 4]


def test_order_rule_table_m4():
    table = order_rule_table(4, TILDE)
    assert table.mode == "exhaustive"
    assert [(row.r, row.observed_orders) for row in table.rows] == [(1, (4,)), (2, (4,))]
    assert table.passed
    table = order_rule_table(4, HAT)
    assert [(row.r, row.observed_orders) for row in table.rows] == [(1, (2,)), (2, (4,))]
    assert table.passed


def test_order_rule_table_m6_hat():
    table = order_rule_table(6, HAT)
    assert [(row.r, row.observed_orders) for row in table.rows] == [
        (1, (2,)),
        (2, (4,)),
        (3, (4,)),
    ]
    assert table.passed
    assert all(row.table_matches_direct for row in table.rows)


def test_order_rule_table_counts_every_lift():
    table = order_rule_table(4, TILDE)
    # 6 transpositions and 3 double transpositions, two lifts each
    assert [row.elements_checked for row in table.rows] == [12, 6]


def test_order_rule_table_m8_direct():
    for kind in (TILDE, HAT):
        table = order_rule_table(8, kind, mode="direct")
        assert table.mode == "direct"
        row = {row.r: row for row in table.rows}[4]
        assert row.observed_orders == (2,)
        assert table.passed


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", [TILDE, HAT])
def test_direct_mode_agrees_with_the_exhaustive_oracle(m, kind):
    # direct mode lifts one product per r and rests on conjugacy
    def fields(mode):
        rows = order_rule_table(m, kind, mode).rows
        return [(row.r, row.expected_order, row.observed_orders, row.passed) for row in rows]

    assert fields("direct") == fields("exhaustive")


def test_exhaustive_mode_checks_both_lifts_against_the_table(monkeypatch):
    real = SpinCover.order_by_table

    def wrong_on_one_lift(self, g):
        return real(self, g) + (g > self.negate_label(g))

    monkeypatch.setattr(SpinCover, "order_by_table", wrong_on_one_lift)
    table = order_rule_table(4, HAT, "exhaustive")
    assert [row.table_matches_direct for row in table.rows] == [False, False]
    assert not table.passed


def test_transposition_product():
    assert transposition_product(5, 2) == from_cycles(5, [(1, 2), (3, 4)])
    assert transposition_product(3, 0) == identity(3)
    assert transposition_product(6, 3) == canonical_fpf_involution(6)
    with pytest.raises(ValueError):
        transposition_product(5, 3)


def test_order_rule_table_mode_validation():
    with pytest.raises(ValueError):
        order_rule_table(4, TILDE, mode="nonsense")
    with pytest.raises(ValueError):
        order_rule_table(8, TILDE, mode="exhaustive")


# -- the supplement condition ------------------------------------------------------------


def cli_supplement_rule(m: int, kind: CoverKind) -> bool:
    """The decision `supplement` makes above the enumeration limit: odd m
    passes, and even m passes when the lift of (1 2)(3 4)...(m-1 m) has
    order 4."""
    return m % 2 == 1 or lift_orders(canonical_fpf_involution(m), kind)[0] == 4


def test_supplement_condition_small_cases():
    assert cli_supplement_rule(2, TILDE)
    assert not cli_supplement_rule(2, HAT)
    assert cli_supplement_rule(4, TILDE)
    assert cli_supplement_rule(4, HAT)
    assert not cli_supplement_rule(6, TILDE)
    assert cli_supplement_rule(6, HAT)


def test_blocking_involutions_cycle_type():
    cover = enumerate_cover(6, TILDE)
    blockers = blocking_involutions(cover)
    assert blockers
    for g in blockers:
        assert cycle_type(cover.group.phi[g]) == (2, 2, 2)


def test_supplement_condition_direct_agrees_with_enumeration():
    # the CLI's lift-order decision against a scan of every involution of the cover
    for m in (2, 3, 4, 5, 6):
        for kind in (TILDE, HAT):
            expected = not blocking_involutions(enumerate_cover(m, kind))
            assert cli_supplement_rule(m, kind) == expected


def test_supplement_condition_direct_m8_blocked_both():
    assert not cli_supplement_rule(8, TILDE)
    assert not cli_supplement_rule(8, HAT)


def test_canonical_fpf_involution():
    assert canonical_fpf_involution(4) == from_cycles(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        canonical_fpf_involution(3)


# -- covers driving orbit graphs ----------------------------------------------


def test_cover_acts_on_orbit_graph_with_kernel_of_order_two():
    from coloursym.equivariant import (
        action_vertex_perm,
        build_pair_colouring,
        make_orbit_spec,
        verify_colour_group,
    )
    from coloursym.graphs import is_colour_consistent
    from coloursym.equivariant import assemble_orbit_graph

    cover = enumerate_cover(2, TILDE)
    f = build_pair_colouring(cover.group, 0)
    spec = make_orbit_spec(cover.group, f, 2, 0)
    report = verify_colour_group(spec)
    assert report.all_consistent
    assert report.kernel == tuple(sorted((0, cover.neg_unit_label)))
    assert report.kernel_size == 2
    # exactly the kernel preserves colours (both colours occur in the graph)
    graph = assemble_orbit_graph(spec)
    assert set(np.unique(graph.colours[~np.eye(graph.n, dtype=bool)])) == {1, 2}
    preserving = tuple(
        g
        for g in range(cover.group.size)
        if is_colour_consistent(
            graph, action_vertex_perm(spec, g), identity(cover.m)
        )
    )
    assert preserving == report.kernel
