import copy
import functools
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloursym import equivariant, graphs
from coloursym.equivariant import (
    FiniteGroup,
    FixedPointFreeInvolution,
    OrbitGraphSpec,
    PairColouring,
    action_vertex_perm,
    assemble_orbit_graph,
    build_pair_colouring,
    cayley_table,
    generators,
    group_from_perms,
    is_associative,
    is_phi_homomorphism,
    make_orbit_spec,
    pair_colour,
    pair_colour_matrix,
    sym_complement,
    symmetric_group,
    verify_colour_group,
)
from coloursym.graphs import (
    colour_lookup,
    find_witness,
    is_colour_consistent,
    witness_queries,
)
from coloursym.perms import (
    apply,
    compose,
    cycles,
    enumerate_sym,
    fixed_points,
    identity,
    inverse,
    transposition,
)
from coloursym.spin import CoverKind, enumerate_cover, pin_mul

from helpers import (
    add_witness_orbit,
    associative_on_all_triples,
    bad_queries,
    colour_of,
    graph_pairs,
    inconsistent_elements,
    phi_homomorphic_on_all_pairs,
    sym_group,
    table_from_all_products,
    trivial_group,
)


# -- groups from permutations -------------------------------------------------


def test_group_from_perms_sym3():
    G = sym_group(3)
    assert G.size == 6
    assert G.m == 3
    assert G.phi[0] == identity(3)
    assert len(set(G.phi)) == 6  # faithful


def test_group_from_perms_trivial():
    G = trivial_group(4)
    assert G.size == 1
    assert G.kernel() == (0,)


def test_group_from_perms_order_two():
    G = group_from_perms([identity(2), (2, 1)])
    assert G.size == 2
    assert G.product(1, 1) == 0


def test_group_from_perms_rejects_unclosed():
    # the generator (1 2 3) maps itself to the missing inverse 3-cycle
    with pytest.raises(ValueError, match=r"not closed under composition: \(1 2 3\) \* \(1 2 3\)"):
        group_from_perms([identity(3), (2, 3, 1)])
    with pytest.raises(ValueError):
        group_from_perms([(2, 1, 3)])  # misses the identity
    with pytest.raises(ValueError):
        group_from_perms([])


@pytest.mark.parametrize("m", [3, 4, 5])
def test_group_from_perms_sym_matches_the_all_products_table(m):
    G = group_from_perms(reversed(enumerate_sym(m)))
    assert G.phi == (identity(m), *sorted(enumerate_sym(m))[1:])
    assert np.array_equal(G.mul, table_from_all_products(G.phi))


def test_group_from_perms_proper_subgroup_matches_the_all_products_table():
    rotations = [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    reflections = [(4, 3, 2, 1), (2, 1, 4, 3), (1, 4, 3, 2), (3, 2, 1, 4)]
    G = group_from_perms(rotations + reflections)  # dihedral, order 8, degree 4
    assert G.size == 8
    assert np.array_equal(G.mul, table_from_all_products(G.phi))


def test_group_from_perms_degree_above_fifteen_matches_the_all_products_table():
    cyclic = [tuple((i + k) % 17 + 1 for i in range(17)) for k in range(17)]
    G = group_from_perms(cyclic)  # the powers of a 17-cycle
    assert (G.size, G.m, G.gens) == (17, 17, (1,))
    assert np.array_equal(G.mul, table_from_all_products(G.phi))


@pytest.mark.parametrize("kind", list(CoverKind))
def test_cover_table_matches_the_all_products_table(kind):
    for m in (3, 4):
        cover = enumerate_cover(m, kind)
        assert np.array_equal(cover.group.mul, table_from_all_products(cover.elements, pin_mul))


def test_cayley_table_fills_columns_along_the_steps():
    # Z/4 from the column of its generator 1: 2 = 1*1, 3 = 2*1
    mul = cayley_table([[1, 2, 3, 0]], [(1, 0, 0), (2, 1, 0), (3, 2, 0)])
    assert mul.tolist() == [[(x + y) % 4 for y in range(4)] for x in range(4)]
    assert cayley_table([], []).tolist() == [[0]]


def test_multiplication_matches_composition():
    G = sym_group(3)
    for i, p in enumerate(G.phi):
        for j, q in enumerate(G.phi):
            assert G.phi[G.product(i, j)] == compose(p, q)


def test_sym4_constructs_and_agrees_with_the_oracles():
    G = sym_group(4)
    assert (G.size, G.m) == (24, 4)
    assert associative_on_all_triples(G.mul) and phi_homomorphic_on_all_pairs(G.mul, G.phi)


def test_constructor_rejects_a_corrupted_sym3_entry():
    G = sym_group(3)
    mul = np.array(G.mul, copy=True)
    # every row keeps exactly one identity entry, so only the proof can object
    assert G.inv[1] == 1
    mul[1, 2] = (mul[1, 2] + 1) % 6
    assert (np.count_nonzero(mul == 0, axis=1) == 1).all()
    assert not is_associative(mul, generators(mul))
    assert not associative_on_all_triples(mul)
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(mul, G.phi)


def test_constructor_rejects_a_phi_that_is_not_a_homomorphism():
    G = sym_group(3)
    phi = list(G.phi)
    phi[1], phi[2] = phi[2], phi[1]
    assert not is_phi_homomorphism(G.mul, colour_lookup(phi), generators(G.mul))
    assert not phi_homomorphic_on_all_pairs(G.mul, phi)
    with pytest.raises(ValueError, match="not a homomorphism"):
        FiniteGroup(G.mul, tuple(phi))


def test_finite_group_derives_size_m_inverses_and_generators():
    G = sym_group(3)
    assert (G.size, G.m) == (6, 3)
    assert repr(G) == "FiniteGroup(size=6, m=3)"  # no table in the repr
    # labels 2 and 3 are (1 2) and (1 2 3); the greedy rule alone picks 1 and 2
    assert G.gens == G.proposed == generators(G.mul, G.proposed) == (2, 3)
    assert generators(G.mul) == (1, 2)
    for g in range(6):
        assert G.product(g, G.inverse_of(g)) == G.product(G.inverse_of(g), g) == 0
        assert G.phi[G.inverse_of(g)] == inverse(G.phi[g])
    assert np.array_equal(G.phi_table, colour_lookup(G.phi))
    assert not G.mul.flags.writeable and not G.inv.flags.writeable


def test_finite_group_tables_are_row_major():
    # cayley_table hands over the transpose of the table it fills row by
    # row; FiniteGroup's one copy of mul is C-contiguous whatever it is given
    assert cayley_table([[1, 2, 0]], [(1, 0, 0), (2, 1, 0)]).flags.f_contiguous
    tables = [sym_group(4), symmetric_group(5), enumerate_cover(4, CoverKind.HAT).group]
    tables.append(FiniteGroup(np.asfortranarray(sym_group(3).mul), sym_group(3).phi))
    for G in tables:
        assert G.mul.flags.c_contiguous and G.mul.dtype == np.int32


def test_finite_group_constructor_validation():
    G = sym_group(3)
    rolled = np.roll(np.array(G.mul), 1, axis=0)  # row 0 is no longer the identity
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup(rolled, G.phi)
    two_zeros = np.array(G.mul)
    two_zeros[1, 1:] = two_zeros[2, 1:] = 0  # keeps the identity row and column
    with pytest.raises(ValueError, match="exactly once"):
        FiniteGroup(two_zeros, G.phi)
    for mul in ([], [[0, 1]], [[0, 1], [1, 2]], [[0.0]], [[True]]):
        with pytest.raises(ValueError):
            FiniteGroup(mul, ((1,),) * len(mul))
    with pytest.raises(ValueError, match="every element"):
        FiniteGroup(G.mul, G.phi[:5])
    with pytest.raises(ValueError, match="permutation"):
        FiniteGroup(G.mul, G.phi[:5] + ((1, 1, 2),))
    with pytest.raises(ValueError, match="act trivially"):
        FiniteGroup([[0, 1], [1, 0]], ((2, 1), (1, 2)))


def test_finite_group_json_roundtrip():
    G = sym_group(3)
    d = G.to_json_dict()
    H = FiniteGroup.from_json_dict(d)
    assert H.to_json_dict() == d
    assert np.array_equal(H.inv, G.inv)
    for key, value in (("size", 5), ("m", 4), ("size", 6.0), ("m", True)):
        with pytest.raises(ValueError, match="size and m"):
            FiniteGroup.from_json_dict({**d, key: value})


ORDER_5_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_the_order_5_loop_is_not_a_group():
    # a Latin square with an identity: only associativity fails
    loop = np.array(ORDER_5_LOOP)
    assert all(sorted(row) == list(range(5)) for row in (*loop, *loop.T))
    doc = {"size": 5, "m": 1, "mul": ORDER_5_LOOP, "phi": [[1]] * 5}
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup.from_json_dict(doc)
    spec = {"group": doc, "base": {str(y): 1 for y in range(1, 5)}, "N": 1, "inter": {}, "seed": 0}
    with pytest.raises(ValueError, match="not associative"):
        OrbitGraphSpec.from_json(json.dumps(spec))


# -- pair colourings -----------------------------------------------------------


def test_pair_colouring_base_of_transposition_is_forced():
    G = sym_group(3)
    lbl = G.phi.index((2, 1, 3))  # the transposition (1 2)
    for seed in range(10):
        f = build_pair_colouring(G, seed)
        assert f.base[lbl] == 3  # the unique colour (1 2) fixes


def test_pair_colouring_inverse_constraint():
    G = sym_group(3)
    f = build_pair_colouring(G, 5)
    y = G.phi.index((2, 3, 1))
    yi = G.inverse_of(y)
    assert G.phi[yi] == (3, 1, 2)
    assert f.base[yi] == apply(G.phi[yi], f.base[y])


def test_pair_colouring_validate_all_seeds():
    for m in (3, 5):
        G = sym_group(m)
        for seed in range(3):
            # the constructor proves the inverse constraint
            build_pair_colouring(G, seed)


def test_pair_colouring_validate_rejects_broken_base():
    G = sym_group(3)
    f = build_pair_colouring(G, 0)
    base = list(f.base)
    y = G.phi.index((2, 3, 1))
    base[y] = base[y] % 3 + 1
    with pytest.raises(ValueError, match=f"base colours of {y} and its inverse"):
        PairColouring(group=G, base=tuple(base))
    # entry 0 is the diagonal of every orbit block
    with pytest.raises(ValueError, match="base entry 0"):
        PairColouring(group=G, base=(7, *f.base[1:]))


def test_pair_colouring_even_palette_raises():
    with pytest.raises(FixedPointFreeInvolution) as info:
        build_pair_colouring(sym_group(2), 0)
    assert info.value.colour_perm == (2, 1)


def test_pair_colouring_deterministic():
    G = sym_group(5)
    assert build_pair_colouring(G, 3).base == build_pair_colouring(G, 3).base


def test_pair_colour_defining_case():
    G = sym_group(3)
    f = build_pair_colouring(G, 2)
    for y in range(1, 6):
        assert pair_colour(f, 0, y) == f.base[y]


def test_pair_colour_symmetry_and_equivariance_exhaustive():
    G = sym_group(3)
    for seed in range(5):
        f = build_pair_colouring(G, seed)
        for x, y in itertools.permutations(range(6), 2):
            assert pair_colour(f, x, y) == pair_colour(f, y, x)
            for g in range(6):
                assert pair_colour(
                    f, G.product(x, g), G.product(y, g)
                ) == apply(G.phi[g], pair_colour(f, x, y))


def test_pair_colour_rejects_equal_arguments():
    f = build_pair_colouring(sym_group(3), 0)
    with pytest.raises(ValueError):
        pair_colour(f, 2, 2)


def test_pair_colour_laws_exhaustive_on_order_48_group():
    # a genuinely non-faithful colour action: the 48-element double cover
    from coloursym.spin import CoverKind, enumerate_cover

    G = enumerate_cover(4, CoverKind.TILDE).group
    f = build_pair_colouring(G, 1)
    F = pair_colour_matrix(f)
    assert np.array_equal(F, F.T)
    phi_table = np.zeros((G.size, G.m + 1), dtype=np.int32)
    phi_table[:, 1:] = np.asarray(G.phi, dtype=np.int32)
    for g in range(G.size):
        col = G.mul[:, g]
        assert np.array_equal(F[np.ix_(col, col)], phi_table[g][F])


def test_pair_colour_matrix_matches_pointwise():
    f = build_pair_colouring(sym_group(3), 7)
    F = pair_colour_matrix(f)
    for x in range(6):
        for y in range(6):
            expected = 0 if x == y else pair_colour(f, x, y)
            assert F[x, y] == expected


# -- orbit specs and assembly ----------------------------------------------------


def make_sym3_spec(orbits: int, seed: int = 0) -> OrbitGraphSpec:
    G = sym_group(3)
    return make_orbit_spec(G, build_pair_colouring(G, seed), orbits, seed)


def test_make_orbit_spec_counts():
    assert make_sym3_spec(1).inter == {}
    spec = make_sym3_spec(2)
    assert set(spec.inter) == {(0, 1)}
    assert len(spec.inter[(0, 1)]) == 6


def test_make_orbit_spec_deterministic():
    assert make_sym3_spec(3, 5).inter == make_sym3_spec(3, 5).inter


def test_make_orbit_spec_draws_what_randrange_draws():
    # one colour stream gives rng.randrange(m) + 1 per value, map by map in (i, j) order
    for G in (sym_group(3), enumerate_cover(4, CoverKind.HAT).group):
        spec = make_orbit_spec(G, build_pair_colouring(G, 2), 3, 2)
        rng = random.Random("orbit-spec:2")
        assert spec.inter == {
            (i, j): tuple(rng.randrange(G.m) + 1 for _ in range(G.size))
            for i in range(3)
            for j in range(i + 1, 3)
        }


def test_make_orbit_spec_refuses_a_group_without_colours():
    G = FiniteGroup(mul=np.zeros((1, 1), dtype=np.int32), phi=((),))
    with pytest.raises(ValueError, match="m = 0"):
        make_orbit_spec(G, build_pair_colouring(G, 0), 2, 0)


def test_make_orbit_spec_compares_groups_by_table_and_action():
    f = build_pair_colouring(sym_group(3), 0)
    assert make_orbit_spec(sym_group(3), f, 2, 0).inter == make_sym3_spec(2).inter
    with pytest.raises(ValueError, match="different group"):
        make_orbit_spec(symmetric_group(4), f, 2, 0)
    a = group_from_perms([identity(3), (2, 1, 3)])
    b = group_from_perms([identity(3), (1, 3, 2)])  # the same table, another action
    with pytest.raises(ValueError, match="different group"):
        make_orbit_spec(b, build_pair_colouring(a, 0), 1, 0)


def test_assemble_intra_orbit_base_colours():
    spec = make_sym3_spec(2)
    graph = assemble_orbit_graph(spec)
    f = spec.colouring
    for y in range(1, 6):
        assert colour_of(graph, 0, y) == f.base[y]


def test_assemble_inter_orbit_identity_column():
    spec = make_sym3_spec(2)
    graph = assemble_orbit_graph(spec)
    b = spec.inter[(0, 1)]
    for y in range(6):
        assert colour_of(graph, y, 6) == b[y]  # vertex 6 is the identity of orbit 1


def test_assemble_sym3_three_orbits():
    graph = assemble_orbit_graph(make_sym3_spec(3))
    assert graph.n == 18
    pairs = list(graph_pairs(graph))
    assert len(pairs) == 153
    assert all(1 <= c <= 3 for _, _, c in pairs)


def test_action_vertex_perm_identity_and_semiregular():
    spec = make_sym3_spec(2)
    n = spec.vertex_count
    assert action_vertex_perm(spec, 0) == identity(n)
    for g in range(1, 6):
        s = action_vertex_perm(spec, g)
        assert all(s[v] != v + 1 for v in range(n))  # no fixed vertex


def test_action_vertex_perm_is_homomorphism():
    spec = make_sym3_spec(2)
    G = spec.group
    for g in range(6):
        for h in range(6):
            assert action_vertex_perm(spec, G.product(g, h)) == compose(
                action_vertex_perm(spec, g), action_vertex_perm(spec, h)
            )


def test_verify_colour_group_sym3():
    report = verify_colour_group(make_sym3_spec(2))
    assert report.exhaustive
    assert report.all_consistent
    assert report.kernel == (0,)
    assert report.kernel_size == 1
    assert report.passed


def test_colour_check_in_row_blocks_matches_one_pass(monkeypatch):
    spec = make_sym3_spec(2)
    graph = assemble_orbit_graph(spec)
    C, G = graph.colours, spec.group
    cases = [(action_vertex_perm(spec, g), G.phi[h]) for g in range(6) for h in range(6)]

    def one_pass(s, pi):
        sv = np.array(s) - 1
        return bool((C[np.ix_(sv, sv)] == np.array((0,) + pi)[C]).all())

    expected = [one_pass(s, pi) for s, pi in cases]
    assert expected.count(True) == 6  # g with phi(g) only, Sym(3) acts faithfully
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 5 * graph.n)  # blocks of 5, 5, 2 rows
    assert [is_colour_consistent(graph, s, pi) for s, pi in cases] == expected


def test_verify_colour_group_trivial_group():
    G = trivial_group(4)
    f = build_pair_colouring(G, 0)
    spec = make_orbit_spec(G, f, 1, 0)
    report = verify_colour_group(spec)
    assert report.passed and report.kernel_size == 1


def test_verify_colour_group_checks_the_generators():
    spec = make_sym3_spec(2)
    report = verify_colour_group(spec)
    assert report.checked == spec.group.gens == (2, 3)  # (1 2) and (1 2 3)
    assert report.argument == "generators + homomorphism"
    assert report.passed
    assert report.graph == assemble_orbit_graph(spec)
    assert inconsistent_elements(spec) == ()


# -- generators and the proof they carry ----------------------------------------


def closure(G, gens):
    """Labels reachable from the identity by right multiplication."""
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for a in gens:
            y = G.product(x, a)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_generators_are_greedy_and_generate(m):
    groups = [sym_group(m)] + [enumerate_cover(m, k).group for k in CoverKind]
    for G in groups:
        gens = generators(G.mul, G.proposed)
        assert gens == G.gens
        assert closure(G, gens) == set(range(G.size))
        pending = list(G.proposed)
        for i, a in enumerate(gens):
            below = closure(G, gens[:i])
            pending = [g for g in pending if g not in below]
            # the next proposed label outside the subgroup, else the smallest
            assert a == (pending.pop(0) if pending else min(set(range(G.size)) - below))
        assert 2 ** len(gens) <= G.size


def test_two_proposed_generators_generate_each_cover_and_sym():
    # Sym(m) is generated by (1 2) and (1 2 ... m); for m >= 4 their lifts
    # generate either double cover, because neither cover splits
    cycle_of = {m: {p for p in enumerate_sym(m) if len(cycles(p)) == 1} for m in range(4, 8)}
    groups = [(m, enumerate_cover(m, kind).group) for m in (4, 5, 6) for kind in CoverKind]
    groups += [(m, symmetric_group(m)) for m in (4, 5, 6, 7)]
    for m, G in groups:
        assert G.gens == G.proposed and len(G.gens) == 2, (m, G)
        swap, rotation = (G.phi[g] for g in G.gens)
        assert swap == transposition(m, 1, 2) and rotation in cycle_of[m]
        assert len(closure(G, G.gens)) == G.size


def test_short_or_missing_proposals_are_completed_greedily():
    def greedy_after(G, proposed):
        gens = generators(G.mul, proposed)
        assert closure(G, gens) == set(range(G.size))
        return gens

    # the m <= 3 covers: the two lifts fall short for m = 2 hat and m = 3 hat
    for m in (2, 3):
        for kind in CoverKind:
            G = enumerate_cover(m, kind).group
            assert G.gens == greedy_after(G, G.proposed)
    assert enumerate_cover(2, CoverKind.HAT).group.gens == (1, 2)
    assert enumerate_cover(3, CoverKind.HAT).group.gens == (1, 4, 3)
    # a group read from JSON proposes nothing and keeps the greedy set
    S4 = sym_group(4)
    H = FiniteGroup.from_json_dict(S4.to_json_dict())
    assert H.proposed == () and H.gens == generators(S4.mul) == (1, 2, 6)
    # one proposed label, and one that is already reached, are completed greedily
    swap = S4.phi.index(transposition(4, 1, 2))
    assert FiniteGroup(S4.mul, S4.phi, proposed=(swap,)).gens == greedy_after(S4, (swap,))
    assert greedy_after(S4, (swap,))[0] == swap
    assert greedy_after(S4, (0, swap, swap)) == greedy_after(S4, (swap,))
    for bad in ((24,), (-1,), (1.0,), (True,)):
        with pytest.raises(ValueError, match="proposed"):
            FiniteGroup(S4.mul, S4.phi, proposed=bad)


def test_trivial_group_has_no_generators():
    assert generators(trivial_group(3).mul) == trivial_group(3).gens == ()


GROUPS_UP_TO_M4 = [("sym", 3), ("sym", 4)] + [
    (kind.value, m) for m in (2, 3, 4) for kind in CoverKind
]


def small_group(name, m):
    return sym_group(m) if name == "sym" else enumerate_cover(m, CoverKind(name)).group


@pytest.mark.parametrize("name,m", GROUPS_UP_TO_M4)
def test_generator_verdict_agrees_with_all_element_oracle(name, m, monkeypatch):
    G = small_group(name, m)
    assert associative_on_all_triples(G.mul) and phi_homomorphic_on_all_pairs(G.mul, G.phi)
    try:
        f = build_pair_colouring(G, 3)
    except FixedPointFreeInvolution:
        # even palettes with a fixed-point-free involution build no orbit graph
        assert (name, m) in {("sym", 4), ("hat", 2)}
        return
    spec = make_orbit_spec(G, f, 2, 3)
    report = verify_colour_group(spec)
    assert report.all_consistent
    assert inconsistent_elements(spec) == ()
    # one recoloured edge: both verdicts turn
    graph = assemble_orbit_graph(spec)
    C = np.array(graph.colours)
    C[0, 1] = C[1, 0] = C[0, 1] % G.m + 1
    broken = type(graph)(m=graph.m, n=graph.n, colours=C)
    monkeypatch.setattr(equivariant, "assemble_orbit_graph", lambda spec: broken)
    report = verify_colour_group(spec)
    assert report.inconsistent and not report.all_consistent
    assert inconsistent_elements(spec, broken) != ()


def test_generator_verdict_agrees_with_oracle_on_m6_hat_cover():
    cover = enumerate_cover(6, CoverKind.HAT)
    spec = make_orbit_spec(cover.group, build_pair_colouring(cover.group, 0), 1, 0)
    report = verify_colour_group(spec)
    assert report.all_consistent and len(report.checked) == 2
    assert inconsistent_elements(spec) == ()


def test_one_recoloured_edge_of_the_m5_orbit_graph_is_caught(monkeypatch):
    cover = enumerate_cover(5, CoverKind.HAT)
    spec = make_orbit_spec(cover.group, build_pair_colouring(cover.group, 1), 2, 1)
    graph = assemble_orbit_graph(spec)
    assert verify_colour_group(spec).all_consistent
    C = np.array(graph.colours)
    u, v = 17, 301
    C[u, v] = C[v, u] = C[u, v] % 5 + 1
    broken = type(graph)(m=5, n=graph.n, colours=C)
    monkeypatch.setattr(equivariant, "assemble_orbit_graph", lambda spec: broken)
    report = verify_colour_group(spec)
    assert report.inconsistent
    assert not report.all_consistent and not report.passed


def test_associativity_defect_in_240_element_table_is_caught(monkeypatch):
    cover = enumerate_cover(5, CoverKind.TILDE)
    G = cover.group
    neg = cover.neg_unit_label
    mul = np.array(G.mul)
    x, y = 3, 7
    v = int(mul[x, y])
    assert v not in (0, neg) and y != G.inv[x]
    mul[x, y] = mul[v, neg]  # -v: the same colour action, so phi stays a homomorphism
    gens = generators(mul)
    assert is_phi_homomorphism(mul, G.phi_table, gens)
    assert not is_associative(mul, gens)
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 7 * G.size)  # 7-row blocks
    assert is_associative(G.mul, G.gens)
    assert not is_associative(mul, gens)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(mul, G.phi)
    assert not associative_on_all_triples(mul)
    assert phi_homomorphic_on_all_pairs(mul, G.phi)


def test_corrupted_phi_entry_is_caught():
    # Sym(3) acting on colours 1..3 and fixing colour 4; every pair gets
    # colour 4, so each generator passes the colour check whatever phi says
    # and only the homomorphism check can see a broken phi
    S3 = sym_group(3)
    phi = [p + (4,) for p in S3.phi]
    G = FiniteGroup(S3.mul, tuple(phi))
    assert G.gens == (1, 2) and G.m == 4
    phi[5] = phi[1]
    colouring = PairColouring(group=G, base=(0,) + (4,) * 5)
    spec = OrbitGraphSpec(colouring=colouring, orbit_count=1, inter={}, seed=0)
    report = verify_colour_group(spec)
    assert report.inconsistent == () and report.all_consistent
    assert all(
        is_colour_consistent(report.graph, action_vertex_perm(spec, a), phi[a]) for a in G.gens
    )
    assert not is_phi_homomorphism(S3.mul, colour_lookup(phi), G.gens)
    assert not phi_homomorphic_on_all_pairs(S3.mul, phi)
    with pytest.raises(ValueError, match="not a homomorphism"):
        FiniteGroup(S3.mul, tuple(phi))


# -- witness orbits ---------------------------------------------------------------


def test_add_witness_orbit_empty_query():
    spec = make_sym3_spec(1)
    grown = add_witness_orbit(spec, ((), ()))
    assert grown.orbit_count == 2
    assert set(grown.inter) == {(0, 1)}


def test_add_witness_orbit_forces_colours():
    spec = make_sym3_spec(1)
    x = 4
    grown = add_witness_orbit(spec, ((x,), (1,)))
    graph = assemble_orbit_graph(grown)
    assert colour_of(graph, x, 6) == 1  # vertex 6 is the new orbit's identity


def test_add_witness_orbit_preserves_existing_colours():
    spec = make_sym3_spec(2)
    before = assemble_orbit_graph(spec)
    grown = add_witness_orbit(spec, ((0, 3, 7), (1, 2, 1)))
    after = assemble_orbit_graph(grown)
    assert np.array_equal(after.colours[: before.n, : before.n], before.colours)


def test_add_witness_orbit_rejects_out_of_range():
    spec = make_sym3_spec(1)
    for q in bad_queries(spec.vertex_count, spec.group.m):
        with pytest.raises(ValueError):
            add_witness_orbit(spec, q)


def test_add_witness_orbit_sweep_saturates_original_vertices():
    # append one orbit per size-<=2 query over the starting orbit; afterwards
    # every such query has a witness in the assembled graph
    spec = make_sym3_spec(1)
    queries = list(witness_queries(6, 3, 2))
    for q in queries:
        spec = add_witness_orbit(spec, q)
    graph = assemble_orbit_graph(spec)
    assert spec.orbit_count == 1 + len(queries)
    for q in queries:
        assert find_witness(graph, q) is not None


def test_verify_after_witness_orbits():
    spec = make_sym3_spec(1)
    spec = add_witness_orbit(spec, ((0, 1, 2), (1, 2, 3)))
    spec = add_witness_orbit(spec, ((0, 8), (3, 1)))
    report = verify_colour_group(spec)
    assert report.passed and report.kernel_size == 1


# -- the full odd-palette pipeline ---------------------------------------------


def test_sym_complement_m3():
    spec, report = sym_complement(3, 2, 0)
    assert spec.vertex_count == 12
    assert report.exhaustive
    assert report.all_consistent
    assert report.kernel_size == 1


def test_sym_complement_rejects_even_or_small():
    with pytest.raises(ValueError):
        sym_complement(2, 1, 0)
    with pytest.raises(ValueError):
        sym_complement(4, 1, 0)
    with pytest.raises(ValueError):
        sym_complement(1, 1, 0)


def test_sym_complement_caps_the_palette_before_building_anything(monkeypatch):
    def refuse(m):
        raise AssertionError(f"enumerate_sym({m}) was called")

    monkeypatch.setattr(equivariant, "enumerate_sym", refuse)
    with pytest.raises(ValueError, match=r"1\.\.7"):
        sym_complement(9, 1, 0)
    with pytest.raises(ValueError, match=r"1\.\.7"):
        symmetric_group(8)


def test_sym_complement_m7():
    spec, report = sym_complement(7, 1, 0)
    assert report.exhaustive
    assert report.all_consistent
    assert report.kernel_size == 1
    assert report.checked == spec.group.gens
    # oracle: a seeded handful of elements checked one by one
    graph = assemble_orbit_graph(spec)
    G = spec.group
    for g in np.random.default_rng(0).choice(G.size, 8, replace=False):
        g = int(g)
        assert is_colour_consistent(graph, action_vertex_perm(spec, g), G.phi[g])


# -- serialization ----------------------------------------------------------------


def test_orbit_spec_json_roundtrip():
    spec = make_sym3_spec(3, seed=9)
    text = spec.to_json()
    back = OrbitGraphSpec.from_json(text)
    assert back.to_json() == text
    assert assemble_orbit_graph(back) == assemble_orbit_graph(spec)


def order_two_spec_doc(**changes) -> dict:
    """Spec JSON over the order-2 group that swaps colours 1 and 2 and fixes 3."""
    G = group_from_perms([identity(3), (2, 1, 3)])
    doc = {"group": G.to_json_dict(), "base": {"1": 3}, "N": 1, "inter": {}, "seed": 0}
    return {**doc, **changes}


def test_order_two_spec_doc_loads():
    doc = order_two_spec_doc()
    assert OrbitGraphSpec.from_json_dict(doc).to_json_dict() == doc


@pytest.mark.parametrize(
    "doc",
    [
        {k: v for k, v in order_two_spec_doc().items() if k != "base"},
        order_two_spec_doc(group={**order_two_spec_doc()["group"], "phi": [1]}),
        order_two_spec_doc(base=[]),
        # the involution moves colour 1, so base colour 1 breaks the inverse constraint
        order_two_spec_doc(base={"1": 1}),
        order_two_spec_doc(base={"1": 4}),
        order_two_spec_doc(base={"01": 3}),
        order_two_spec_doc(base={"1": 3.0}),
        order_two_spec_doc(N=2, inter={"0,1": [1, "2"]}),
        order_two_spec_doc(N=2, inter={"0, 1": [1, 2]}),
        order_two_spec_doc(N=10**9),
        order_two_spec_doc(seed=True),
        order_two_spec_doc(extra=1),
    ],
    ids=[
        "missing-base", "phi-not-rows", "base-is-a-list", "base-breaks-inverse-constraint",
        "base-out-of-range", "base-key-not-canonical", "base-float", "inter-string-colour",
        "inter-key-not-canonical", "huge-N", "boolean-seed", "unknown-key",
    ],
)
def test_spec_loading_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        OrbitGraphSpec.from_json_dict(doc)


def json_paths(value, prefix=()):
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
VALID_SPEC_DOCS = [
    order_two_spec_doc(),
    order_two_spec_doc(N=2, inter={"0,1": [3, 1]}),
    make_sym3_spec(3, seed=1).to_json_dict(),
]


@st.composite
def mutated_spec_docs(draw):
    """A valid spec document with one value replaced or one key deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_SPEC_DOCS)))
    path = draw(st.sampled_from(list(json_paths(doc))))
    if not path:
        return doc
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.integers(-1, 4) | json_values)
    return doc


@settings(max_examples=300, deadline=None)
@given(json_values | mutated_spec_docs())
def test_spec_loading_raises_value_error_or_round_trips_exactly(doc):
    try:
        spec = OrbitGraphSpec.from_json_dict(doc)
    except ValueError:
        return
    assert json.dumps(spec.to_json_dict(), sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_consistency_of_assembled_graph_directly():
    # the machine-checked core: every group element with its colour image
    spec = make_sym3_spec(2, seed=4)
    graph = assemble_orbit_graph(spec)
    G = spec.group
    for g in range(G.size):
        assert is_colour_consistent(graph, action_vertex_perm(spec, g), G.phi[g])


def test_colour_preserving_elements_are_exactly_the_kernel():
    spec = make_sym3_spec(2, seed=0)
    graph = assemble_orbit_graph(spec)
    # all three colours occur, so distinct colour permutations are separated
    off_diagonal = graph.colours[~np.eye(graph.n, dtype=bool)]
    assert set(np.unique(off_diagonal)) == {1, 2, 3}
    G = spec.group
    ident = identity(graph.m)
    preserving = tuple(
        g
        for g in range(G.size)
        if is_colour_consistent(graph, action_vertex_perm(spec, g), ident)
    )
    assert preserving == G.kernel() == (0,)
