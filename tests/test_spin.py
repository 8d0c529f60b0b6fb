import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coloursym.perms import (
    cycle_type,
    enumerate_sym,
    from_cycles,
    identity,
    is_involution,
    transposition,
)
from coloursym.spin import (
    CliffordScalar,
    CoverKind,
    PinElement,
    basis_vector,
    blade_mul,
    blocking_involutions,
    canonical_fpf_involution,
    coxeter_generator,
    enumerate_cover,
    lift,
    order,
    order_rule_table,
    pair_vector,
    pin_inverse,
    pin_mul,
    pin_neg,
    predicted_lift_order,
    project,
    reversal,
    supplement_condition,
    supplement_condition_direct,
    unit,
)

from helpers import associative_on_all_triples, phi_homomorphic_on_all_pairs

TILDE, HAT = CoverKind.TILDE, CoverKind.HAT


# -- exact scalars ----------------------------------------------------------


def test_scalar_normal_form():
    assert CliffordScalar(4, 3) == CliffordScalar(2, 1)  # both are sqrt(2)
    assert CliffordScalar(6, 2) == CliffordScalar(3, 0)
    assert CliffordScalar(0, 5) == CliffordScalar(0, 0)
    assert CliffordScalar(2, 1).k == 1  # 2/sqrt2 = sqrt2 stays at k=1
    assert CliffordScalar(2, 1).as_float() == pytest.approx(2**0.5)
    assert CliffordScalar(-3, 2).as_float() == -1.5


def test_scalar_normal_form_is_unique():
    seen = {}
    for n in range(-8, 9):
        for k in range(0, 7):
            s = CliffordScalar(n, k)
            value = (Fraction(n), k)
            exact = s.as_exact()
            if exact in seen:
                assert seen[exact] == (s.n, s.k), f"two normal forms for {exact}"
            seen[exact] = (s.n, s.k)


def test_scalar_negative_exponent_rejected():
    with pytest.raises(ValueError):
        CliffordScalar(1, -1)


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
        seq = [i for i in range(4) if a_bits >> i & 1] + [
            i for i in range(4) if b_bits >> i & 1
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
                    sign *= kind.square_sign
                    del seq[i : i + 2]
                    changed = True
                    break
        mask = 0
        for i in seq:
            mask |= 1 << i
        return mask, sign

    for kind in (TILDE, HAT):
        for a in range(16):
            for b in range(16):
                assert blade_mul(a, b, kind) == slow(a, b, kind)


# -- algebra elements -----------------------------------------------------------


def test_unit_laws():
    one = unit(1, 3, TILDE)
    x = coxeter_generator(1, 3, TILDE)
    assert pin_mul(x, one) == x
    assert pin_mul(one, x) == x
    assert pin_mul(unit(-1, 3, TILDE), unit(-1, 3, TILDE)) == one


def test_generator_squares():
    assert pin_mul(coxeter_generator(1, 2, TILDE), coxeter_generator(1, 2, TILDE)) == unit(-1, 2, TILDE)
    assert pin_mul(coxeter_generator(1, 2, HAT), coxeter_generator(1, 2, HAT)) == unit(1, 2, HAT)


def test_disjoint_generators_anticommute():
    a = coxeter_generator(1, 4, HAT)
    b = coxeter_generator(3, 4, HAT)
    assert pin_mul(a, b) == pin_neg(pin_mul(b, a))


def test_generator_has_two_blades():
    g = coxeter_generator(2, 5, TILDE)
    assert g.blade_count() == 2
    assert project(g) == transposition(5, 2, 3)


def test_pair_vector_projects_to_transposition():
    for kind in (TILDE, HAT):
        assert project(pair_vector(1, 4, 5, kind)) == transposition(5, 1, 4)


def test_degree_is_checked_before_the_coefficients_are_allocated():
    # m is checked before anything else about the element
    with pytest.raises(ValueError, match=r"1\.\.12"):
        unit(1, 40, TILDE)


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
    with pytest.raises(ValueError, match=r"1\.\.12"):
        PinElement(HAT, 13, 0, ((0, 1),))


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
    assert list(y.blades()) == list(x.blades())
    assert list(x.blades()) == [
        (mask, CliffordScalar(n, k)) for mask, n in sorted(terms.items()) if n
    ]
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
    assert len(cover.group.gens) == 4
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
        for p in enumerate_sym(3):
            x = lift(p, kind)
            lbl = cover.label_of(x)
            neg_lbl = cover.label_of(pin_neg(x))
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


def test_cover_json_export():
    cover = enumerate_cover(2, TILDE)
    doc = cover.to_json_dict()
    assert doc["kind"] == "tilde"
    assert doc["group"]["size"] == 4
    assert len(doc["elements"]) == 4
    assert doc["elements"][0] == [[0, 1, 0]]  # the unit: blade 0, scalar 1


# sha256 of each cover's sorted-key JSON export: pins the element order, the
# multiplication table and every [mask, n, k] coefficient
COVER_JSON_SHA256 = {
    (2, TILDE): "4b7d2978a14798a7cce81cb804d368b18cb77edceea969f2749de0d15a56d96a",
    (2, HAT): "7e200e91f690175574879647592224f55a0e120a7a5534a27b107a6628328e9d",
    (3, TILDE): "471265514d3b28e5d056f88da487262f3b5af2137353fdc86fd49629dd6fe3fc",
    (3, HAT): "f84b84cf30b5a8aa301e3d9db099ddd486769134a13ade1676fa80d804f4be3c",
    (4, TILDE): "5138c017cf531bb21688c94a2bfd688571fdd6741d80054b5b0ab872d313665d",
    (4, HAT): "477a4916759bfbee837a4a5b4189d59d56229f26861d4e9978289a5e257bdb02",
    (5, TILDE): "58a3d6d97ea0ec1e5be9880c97eca451fc20aa18c96fc897a891c923e6ba856f",
    (5, HAT): "5c68a5d2941688fc34831d242003cab876eecc46dba87673e42f1453075ce7d8",
}


@pytest.mark.parametrize("m, kind", list(COVER_JSON_SHA256))
def test_cover_json_keeps_its_bytes(m, kind):
    text = json.dumps(enumerate_cover(m, kind).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == COVER_JSON_SHA256[m, kind]


# -- the order rule ----------------------------------------------------------------------


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


def test_order_rule_table_mode_validation():
    with pytest.raises(ValueError):
        order_rule_table(4, TILDE, mode="nonsense")
    with pytest.raises(ValueError):
        order_rule_table(8, TILDE, mode="exhaustive")


def test_order_rule_render_text():
    text = order_rule_table(4, TILDE).render_text()
    assert "tilde" in text and "pass" in text


# -- the supplement condition ------------------------------------------------------------


def test_supplement_condition_small_cases():
    assert supplement_condition(2, TILDE)
    assert not supplement_condition(2, HAT)
    assert supplement_condition(4, TILDE)
    assert supplement_condition(4, HAT)
    assert not supplement_condition(6, TILDE)
    assert supplement_condition(6, HAT)


def test_blocking_involutions_cycle_type():
    cover = enumerate_cover(6, TILDE)
    blockers = blocking_involutions(cover)
    assert blockers
    for g in blockers:
        assert cycle_type(cover.group.phi[g]) == (2, 2, 2)


def test_supplement_condition_direct_agrees_with_enumeration():
    for m in (2, 4, 6):
        for kind in (TILDE, HAT):
            assert supplement_condition_direct(m, kind) == supplement_condition(m, kind)


def test_supplement_condition_direct_m8_blocked_both():
    assert not supplement_condition_direct(8, TILDE)
    assert not supplement_condition_direct(8, HAT)


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
    import numpy as np

    assert set(np.unique(graph.colours[~np.eye(graph.n, dtype=bool)])) == {1, 2}
    preserving = tuple(
        g
        for g in range(cover.group.size)
        if is_colour_consistent(
            graph, action_vertex_perm(spec, g), identity(cover.m)
        )
    )
    assert preserving == report.kernel
