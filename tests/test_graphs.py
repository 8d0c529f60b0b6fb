import collections
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloursym import graphs
from coloursym.cli import main
from coloursym.graphs import (
    ColouredGraph,
    PartialIso,
    WitnessMissingError,
    check_no_fpf_colour_involution,
    colour_lookup,
    colour_stream,
    extend_iso,
    find_witness,
    graph_from_edges,
    is_colour_consistent,
    missing_queries,
    random_graph,
    row_blocks,
    saturate,
    validate_partial_iso,
    witness_queries,
)
from coloursym.perms import (
    apply,
    compose,
    enumerate_sym,
    identity,
    inverse,
    transposition,
)

from helpers import (
    all_two_colourings,
    bad_queries,
    colour_of,
    dot_by_pairs,
    graph_pairs,
    obstruction_by_full_checks,
    random_graph_by_pairs,
    recolour,
    saturate_by_full_sweeps,
    to_dot,
)


def single_edge(c: int, m: int = 2) -> ColouredGraph:
    return graph_from_edges(m, 2, [[0, 1, c]])


# -- random generation ------------------------------------------------------


def test_random_graph_empty():
    G = random_graph(0, 3, 0)
    assert G.n == 0 and list(graph_pairs(G)) == []


def test_random_graph_single_edge():
    G = random_graph(2, 5, 123)
    assert 1 <= colour_of(G, 0, 1) <= 5
    assert colour_of(G, 0, 1) == colour_of(G, 1, 0)


def test_random_graph_deterministic():
    assert random_graph(10, 3, 42) == random_graph(10, 3, 42)
    assert random_graph(10, 3, 42) != random_graph(10, 3, 43)


def test_random_graph_matches_the_pairs_loop():
    # 2 and 128 colours accept half of the drawn words, 5 five eighths, 129
    # about half and 255 nearly all; 1100 vertices take two row blocks
    for n, m in [(0, 2), (1, 3), (3, 3), (50, 5), (64, 128), (64, 129), (97, 255), (300, 2), (1100, 7)]:
        for seed in (0, 1):
            assert random_graph(n, m, seed) == random_graph_by_pairs(n, m, seed), (n, m, seed)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 128, 129, 255])
def test_colour_stream_returns_successive_randrange_draws(m):
    # requests of 0, 1 and many values: what one request leaves over is
    # handed out first by the next, across batches of random words
    draw = colour_stream(random.Random(f"stream:{m}"), m)
    rng = random.Random(f"stream:{m}")
    for count in (0, 1, 0, 3, 1, 2 * graphs.STREAM_WORDS, 1, 7, 5 * graphs.STREAM_WORDS, 0, 2):
        values = draw(count)
        assert values.dtype == np.uint8
        assert values.tolist() == [rng.randrange(m) + 1 for _ in range(count)], (m, count)


def test_colour_stream_refuses_an_empty_palette():
    # randrange(0) has nothing to return; draw would divide by m
    with pytest.raises(ValueError, match="m = 0"):
        colour_stream(random.Random(0), 0)


def test_random_graph_rejects_tiny_palette():
    with pytest.raises(ValueError):
        random_graph(3, 1, 0)


def test_random_graph_colour_frequencies():
    # 100 seeds x C(60,2) edges; each colour frequency within 5% of 1/3
    counts = {1: 0, 2: 0, 3: 0}
    for seed in range(100):
        G = random_graph(60, 3, seed)
        values, freq = np.unique(G.colours[np.triu_indices(60, k=1)], return_counts=True)
        for v, f in zip(values, freq):
            counts[int(v)] += int(f)
    total = sum(counts.values())
    assert total == 100 * 60 * 59 // 2
    for c in (1, 2, 3):
        assert abs(counts[c] / total - 1 / 3) < 0.05 / 3


# -- recolouring ------------------------------------------------------------


def test_recolour_identity():
    G = random_graph(6, 3, 1)
    assert recolour(G, identity(3)) == G


def test_recolour_single_edge():
    G = single_edge(1)
    assert colour_of(recolour(G, (2, 1)), 0, 1) == 2


def test_recolour_inverse_law():
    for seed in range(5):
        G = random_graph(7, 4, seed)
        for pi in enumerate_sym(4)[:8]:
            assert recolour(recolour(G, pi), inverse(pi)) == G


def test_recolour_is_group_action():
    G = random_graph(6, 3, 9)
    for p in enumerate_sym(3):
        for q in enumerate_sym(3):
            assert recolour(G, compose(p, q)) == recolour(recolour(G, p), q)


def test_colour_lookup_maps_colours_and_fixes_zero():
    assert colour_lookup((2, 3, 1)).tolist() == [0, 2, 3, 1]
    assert colour_lookup([(1, 2), (2, 1)]).tolist() == [[0, 1, 2], [0, 2, 1]]
    assert colour_lookup([()]).tolist() == [[0]]


def test_recolour_degree_mismatch():
    with pytest.raises(ValueError):
        recolour(single_edge(1), (2, 1, 3))


# -- colour consistency ------------------------------------------------------


def test_consistency_identity_pair():
    G = random_graph(5, 3, 2)
    assert is_colour_consistent(G, identity(5), identity(3))


def test_consistency_two_cycle_keeps_edge_colour():
    # swapping the ends of an edge fixes its colour, so a colour involution
    # moving that colour can never be induced
    G = single_edge(1)
    swap = transposition(2, 1, 2)
    assert not is_colour_consistent(G, swap, (2, 1))
    assert is_colour_consistent(G, swap, identity(2))


def test_consistency_degree_checks():
    G = single_edge(1)
    with pytest.raises(ValueError):
        is_colour_consistent(G, identity(3), identity(2))
    with pytest.raises(ValueError):
        is_colour_consistent(G, identity(2), identity(3))


def test_consistent_pairs_closed_under_composition():
    # exhaustive oracle on a small graph: collect every consistent
    # (vertex perm, colour perm) pair and check pairwise products
    G = random_graph(4, 2, 5)
    consistent = [
        (s, pi)
        for s in enumerate_sym(4)
        for pi in enumerate_sym(2)
        if is_colour_consistent(G, s, pi)
    ]
    assert (identity(4), identity(2)) in consistent
    for (s1, p1), (s2, p2) in itertools.product(consistent, repeat=2):
        assert is_colour_consistent(G, compose(s1, s2), compose(p1, p2))


# -- the even-palette obstruction ---------------------------------------------


def test_obstruction_m2_single_edge():
    G = single_edge(1)
    assert check_no_fpf_colour_involution(G).passed
    full = obstruction_by_full_checks(G)
    assert full.vertex_perm_count == 1
    assert full.colour_involution_count == 1
    assert full.pairs_checked == 1
    assert full.consistent_pairs == ()
    citation = full.citations[0]
    assert citation.edge == (0, 1)
    assert citation.image_colour != citation.colour


def test_obstruction_m4_random():
    G = random_graph(4, 4, 7)
    assert check_no_fpf_colour_involution(G).passed
    full = obstruction_by_full_checks(G)
    assert full.colour_involution_count == 3  # the double transpositions of S4
    assert full.consistent_pairs == ()
    assert len(full.citations) == full.pairs_checked


def test_obstruction_vacuous_small_n():
    for n in (0, 1):
        G = ColouredGraph(m=2, n=n, colours=np.zeros((n, n), dtype=np.int32))
        assert check_no_fpf_colour_involution(G).passed
        assert obstruction_by_full_checks(G).pairs_checked == 0


def test_obstruction_rejects_odd_palette():
    with pytest.raises(ValueError):
        check_no_fpf_colour_involution(random_graph(3, 3, 0))


def test_obstruction_guard(tmp_path, capsys):
    # the argument enumerates nothing, so it decides any graph the reader accepts
    for n, m in ((8, 2), (4, 10)):
        G = random_graph(n, m, 1)
        assert check_no_fpf_colour_involution(G).passed
        src = tmp_path / f"g{n}.json"
        src.write_text(G.to_json())
        assert main(["obstruction", "--in", str(src), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and f"n={n}, m={m}" in doc["assertions"][0]["detail"]


def test_obstruction_summary_names_the_argument_and_no_count():
    report = check_no_fpf_colour_involution(random_graph(7, 8, 0))
    assert (report.m, report.n, report.passed) == (8, 7, True)
    summary = report.summary()
    assert summary.startswith("2-cycle edge + fixed-point-free involution on n=7, m=8: ")
    assert summary.endswith("; 0 consistent")
    # only n, m and the verdict: no count that grows with n! or with m
    assert re.findall(r"\d+", summary) == ["2", "7", "8", "0"]


def test_obstruction_all_two_colourings_up_to_n4():
    for n in range(5):
        for G in all_two_colourings(n):
            assert check_no_fpf_colour_involution(G).passed


def test_obstruction_n6_random_graphs():
    for m in (2, 4):
        for seed in range(3):
            assert check_no_fpf_colour_involution(random_graph(6, m, seed)).passed


def test_obstruction_citations_name_moved_colours():
    full = obstruction_by_full_checks(random_graph(5, 2, 3))
    assert full.citations and len(full.citations) == full.pairs_checked
    for citation in full.citations:
        u, v = citation.edge
        # the cited edge joins a 2-cycle of s and its colour moves under pi
        assert apply(citation.vertex_perm, u + 1) == v + 1
        assert apply(citation.colour_perm, citation.colour) == citation.image_colour
        assert citation.image_colour != citation.colour


def test_obstruction_report_equals_the_full_check_of_every_pair():
    # the argument's verdict against a full colour check of each pair
    for n in range(8):
        for m in (2, 4, 6, 8):
            G = random_graph(n, m, 100 * n + m)
            assert check_no_fpf_colour_involution(G).passed, (n, m)
            assert obstruction_by_full_checks(G).consistent_pairs == (), (n, m)


# -- witness queries -----------------------------------------------------------


def test_find_witness_vacuous_query():
    G = random_graph(4, 2, 0)
    assert find_witness(G, ((), ())) == 0


def test_find_witness_absent():
    G = single_edge(1)
    assert find_witness(G, ((0, 1), (1, 2))) is None


def test_find_witness_picks_smallest():
    # path: 0-1 colour 1, 0-2 colour 1, 1-2 colour 2
    G = graph_from_edges(2, 3, [[0, 1, 1], [0, 2, 1], [1, 2, 2]])
    assert find_witness(G, ((0,), (1,))) == 1
    # the vertices need not ascend; colour i goes with vertex i
    assert find_witness(G, ((2, 0), (2, 1))) == 1
    assert find_witness(G, ((2, 0), (1, 2))) is None


def test_find_witness_rejects_bad_query():
    G = random_graph(3, 2, 0)
    for q in bad_queries(G.n, G.m):
        with pytest.raises(ValueError):
            find_witness(G, q)


def test_witness_queries_enumeration_order_and_count():
    qs = list(witness_queries(3, 2, 2))
    # sizes 0,1,2: 1 + 3*2 + 3*4 = 19
    assert len(qs) == 19
    assert qs[:4] == [((), ()), ((0,), (1,)), ((0,), (2,)), ((1,), (1,))]
    assert qs[7:9] == [((0, 1), (1, 1)), ((0, 1), (1, 2))]
    sizes = [len(verts) for verts, _ in qs]
    assert sizes == sorted(sizes)
    assert len(set(qs)) == len(qs)


def one_colour(n):
    """The complete graph on n vertices with every pair coloured 1."""
    return graph_from_edges(1, n, [[u, v, 1] for u, v in itertools.combinations(range(n), 2)])


def oracle_missing(G, k):
    """missing_queries' answer, computed query by query through find_witness."""
    return [q for q in witness_queries(G.n, G.m, k) if find_witness(G, q) is None]


def test_missing_queries_agrees_with_find_witness_in_order():
    for n, m in itertools.product(range(7), range(1, 5)):
        for seed in range(3):
            G = one_colour(n) if m == 1 else random_graph(n, m, seed)  # random_graph needs m >= 2
            for k in range(4):
                assert missing_queries(G, k) == oracle_missing(G, k), (n, m, seed, k)


def test_missing_queries_reads_uint8_colours_without_wrapping():
    # uint8 colours minus 1 would wrap the zero diagonal to 255; the sweep
    # reads them as int32 and agrees with find_witness at both palette ends
    top = graphs.MAX_PALETTE
    cases = [(random_graph(6, 2, 7), 3), (random_graph(5, top, 7), 1), (random_graph(2, top, 7), 2)]
    cases.append((graph_from_edges(top, 3, [[0, 1, top], [0, 2, 1], [1, 2, top]]), 1))
    for G, k in cases:
        assert G.colours.dtype == np.uint8
        assert missing_queries(G, k) == oracle_missing(G, k), (G, k)


@pytest.mark.parametrize("entries", [1, 20])
def test_missing_queries_agrees_with_find_witness_in_small_blocks(monkeypatch, entries):
    # blocks of one or a few tuples, a last block cut short, and codes up to 255^2
    monkeypatch.setattr(graphs, "SWEEP_BLOCK_ENTRIES", entries)
    cases = [(random_graph(7, 2, 3), 3), (random_graph(6, 3, 4), 2), (random_graph(6, 255, 5), 1)]
    cases.append((random_graph(2, 255, 6), 2))
    for G, k in cases:
        full = oracle_missing(G, k)
        for since in range(G.n + 1):
            kept = [q for q in full if max(q[0], default=0) >= since]
            assert missing_queries(G, k, since=since) == kept, (G.n, G.m, k, since)


def test_missing_queries_counts_the_sweep_before_any_work(monkeypatch):
    G = random_graph(3, 3, 0)  # 1 + 3*3 + 3*9 = 37 queries of size <= 2
    monkeypatch.setattr(graphs, "MAX_SWEEP_QUERIES", 64)
    missing_queries(G, 50)  # sizes stop at n: 37 + 27 = 64 queries
    monkeypatch.setattr(graphs, "MAX_SWEEP_QUERIES", 37)
    missing_queries(G, 2)
    with pytest.raises(ValueError, match="limit of 37"):
        missing_queries(G, 3)
    monkeypatch.setattr(graphs, "MAX_SWEEP_QUERIES", 36)
    with pytest.raises(ValueError, match="limit of 36"):
        missing_queries(G, 2)


def test_missing_queries_lists_at_most_the_limit(monkeypatch):
    G = random_graph(4, 3, 0)
    full = missing_queries(G, 3)
    assert len(full) > 1
    monkeypatch.setattr(graphs, "MAX_MISSING_QUERIES", len(full))
    assert missing_queries(G, 3) == full
    monkeypatch.setattr(graphs, "MAX_MISSING_QUERIES", len(full) - 1)
    with pytest.raises(ValueError, match=f"without a witness exceed the limit of {len(full) - 1}"):
        missing_queries(G, 3)


def test_missing_queries_since_keeps_the_queries_on_a_later_vertex():
    # the full list filtered to queries whose largest vertex is >= since;
    # the empty query, with no vertex, only at since 0
    for n, m in itertools.product(range(7), range(1, 5)):
        G = one_colour(n) if m == 1 else random_graph(n, m, n + m)
        for k in range(4):
            full = missing_queries(G, k)
            for s in range(n + 1):
                kept = [q for q in full if max(q[0], default=0) >= s]
                assert missing_queries(G, k, since=s) == kept, (n, m, k, s)


def test_missing_queries_since_counts_every_query_against_the_limit(monkeypatch):
    G = random_graph(3, 3, 0)  # 37 queries of size <= 2, 21 with largest vertex 2
    monkeypatch.setattr(graphs, "MAX_SWEEP_QUERIES", 36)
    with pytest.raises(ValueError, match="limit of 36"):
        missing_queries(G, 2, since=2)


# -- saturation ----------------------------------------------------------------


def test_saturate_fixpoint_returns_same_graph():
    H, achieved = saturate(random_graph(3, 3, 0), 2, 0)
    assert achieved
    H2, achieved2 = saturate(H, 2, 999)
    assert achieved2 and H2 is H


def test_saturate_small_start_adds_witnesses():
    G = random_graph(1, 2, 0)
    H, achieved = saturate(G, 1, 0)
    assert achieved
    assert H.n >= 3  # vertex 0 needs neighbours of both colours
    for q in witness_queries(H.n, 2, 1):
        assert find_witness(H, q) is not None


def test_saturate_reaches_fixpoint_and_sweep_passes():
    H, achieved = saturate(random_graph(3, 3, 11), 2, 11, rounds=8)
    assert achieved
    assert all(find_witness(H, q) is not None for q in witness_queries(H.n, 3, 2))


def test_saturate_checks_the_last_adding_sweep_before_failing():
    # with this seed the tenth sweep is the first that adds nothing
    s = 1018370994
    H, achieved = saturate(random_graph(3, 3, s), 2, s, rounds=9)
    assert (achieved, H.n) == (True, 67)
    assert all(find_witness(H, q) is not None for q in witness_queries(H.n, 3, 2))
    H, achieved = saturate(random_graph(3, 3, s), 2, s, rounds=8)
    assert (achieved, H.n) == (False, 65)  # the deciding sweep adds nothing


def test_saturate_deterministic():
    H1, a1 = saturate(random_graph(3, 3, 4), 2, 77)
    H2, a2 = saturate(random_graph(3, 3, 4), 2, 77)
    assert a1 == a2 and H1 == H2


def test_saturate_honest_rounds_cap():
    H, achieved = saturate(random_graph(2, 3, 0), 3, 0, rounds=1)
    assert not achieved
    assert H.n > 2


def test_saturate_preserves_original_colours():
    G = random_graph(4, 3, 8)
    H, _ = saturate(G, 2, 8)
    assert np.array_equal(H.colours[:4, :4], G.colours)


def test_saturate_input_validation():
    G = random_graph(2, 2, 0)
    with pytest.raises(ValueError):
        saturate(G, 0, 0)
    with pytest.raises(ValueError):
        saturate(G, 1, 0, rounds=0)


@pytest.mark.parametrize(
    "case, result, digest",
    [
        ((3, 3, 1, 2, 8), (True, 67), "20d5cb0c972940cb2a2097a501c47ba75b23c0ed32e45d10b88ee2a16193457e"),
        ((3, 3, 2, 2, 8), (True, 64), "039301e4dc26d5d9b945995deeca95a9f758780f1fbf5f0f6c613f1d277fdc7c"),
        ((3, 3, 3, 2, 8), (True, 62), "daed17e16da9c47e0cac03c8ef0acdaa9c63060c41c42f2c17a3bb0ae50ab354"),
        ((3, 3, 1018370994, 2, 9), (True, 67), "f6345754c0a13ae30d5bd2bcf9dd193a3391635b7bebc85870e1622e1310f915"),
        ((3, 3, 1018370994, 2, 8), (False, 65), "50a9831b4f42e6517558d51572d8484487b18734bd7fb00786431973a708c4a2"),
        ((2, 3, 0, 3, 1), (False, 11), "fee0dd05edfa46aad06a54d295acc0faee5df3d611557d8d5004e26d202d5b9b"),
        ((4, 2, 5, 3, 8), (True, 81), "49a8fe6820d94d52268dd978aed94e53f6d6c03bff5bf669641bf09e59353ddc"),
        ((5, 4, 3, 2, 8), (True, 135), "7a141139dd507047cb8e7463c32b309ddf22884c0ff2ddfc16f19904079f62f2"),
        ((0, 2, 4, 2, 8), (True, 18), "49aeb5d842c73239e054ffbac0fa52318cabc66b6678f08b75910261aa3584a8"),
    ],
)
def test_saturate_keeps_its_bytes(case, result, digest):
    # (n, m, seed, k, rounds) -> (achieved, final n) and the sha256 of the
    # graph JSON, as the query-by-query sweep produced them
    n, m, s, k, r = case
    H, achieved = saturate(random_graph(n, m, s), k, s, rounds=r)
    assert (achieved, H.n) == result
    assert hashlib.sha256(H.to_json().encode()).hexdigest() == digest


SATURATE_CASES = [  # (n, m, seed, k, rounds)
    *itertools.product(range(5), (2, 3), (0, 1), (1, 2), (1, 2, 8)),
    *itertools.product(range(4), (4, 5), (2,), (1, 2), (1, 8)),
    (0, 2, 4, 3, 8),
    (2, 3, 0, 3, 1),
    (3, 2, 3, 3, 2),
    (3, 3, 1018370994, 2, 8),  # not achieved: the deciding sweep finds queries missing
    (3, 3, 1018370994, 2, 9),
]


def test_saturate_equals_the_full_sweep_oracle():
    # later sweeps read only the queries on a vertex the sweep before added;
    # sweeping every query each time must grow the same graph
    verdicts = set()
    for n, m, s, k, r in SATURATE_CASES:
        G = random_graph(n, m, s)
        H, achieved = saturate(G, k, s, rounds=r)
        assert (H, achieved) == saturate_by_full_sweeps(G, k, s, rounds=r), (n, m, s, k, r)
        assert achieved == (missing_queries(H, k) == []), (n, m, s, k, r)
        verdicts.add(achieved)
    assert verdicts == {True, False}


def test_a_tuple_can_take_several_new_vertices_in_one_sweep():
    # saturate reads the colours to U of the vertices added before U's
    # queries once; replay the first sweep query by query on its result:
    # each query takes a new vertex unless one added before it witnesses it
    for n, m, s, k, _ in SATURATE_CASES:
        G = random_graph(n, m, s)
        H, _ = saturate(G, k, s, rounds=1)
        taken, v = collections.Counter(), n
        for verts, colours in missing_queries(G, k):
            if list(colours) not in H.colours[n:v, list(verts)].tolist():
                taken[verts] += 1
                v += 1
        assert v == H.n, (n, m, s, k)
        if (n, m, s, k) == (3, 4, 2, 2):
            assert max(taken.values()) >= 2


def test_saturate_refuses_a_run_the_sweep_limit_would_stop(monkeypatch):
    # the refusal comes before the sweep adds a vertex; without it the
    # full-sweep oracle, which has no such refusal, fails on a later sweep
    monkeypatch.setattr(graphs, "MAX_SWEEP_QUERIES", 2000)
    outcomes = collections.Counter()
    for n, m, s, k in itertools.product(range(5), (2, 3, 4), (0, 1), (1, 2, 3)):
        G = random_graph(n, m, s)
        try:
            expected = saturate_by_full_sweeps(G, k, s)
        except ValueError as exc:
            expected = exc
        try:
            got = saturate(G, k, s)
        except ValueError as exc:
            assert isinstance(expected, ValueError), (n, m, s, k)
            outcomes["refused" if "grows the graph" in str(exc) else "failed"] += 1
            continue
        assert got == expected, (n, m, s, k)
        outcomes["saturated"] += 1
    assert outcomes["refused"] and outcomes["saturated"], outcomes


def test_saturate_refusal_sits_at_the_count_over_the_smallest_graph_it_grows_to(monkeypatch):
    # from 2 vertices and 3 colours at k = 2 the first sweep grows the graph to
    # at least 2 + 3^2 = 11 vertices: 1 + 11*3 + 55*9 = 529 queries of size <= 2
    # (the next sweep, at 11 vertices, is refused in turn at a limit of 529)
    G = random_graph(2, 3, 0)
    for n, limit in [(2, 528), (11, 529)]:
        monkeypatch.setattr(graphs, "MAX_SWEEP_QUERIES", limit)
        message = (f"saturating {n} vertices and 3 colours at k = 2 grows the graph to at least "
                   f"2 + 3^2 vertices, and the queries over them exceed the limit of {limit} per sweep")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            saturate(G, 2, 0)


def test_the_deciding_sweep_stops_at_its_first_missing_query():
    # from 2 vertices and 3 colours at a huge k, the deciding sweep over 11
    # vertices has more than MAX_MISSING_QUERIES queries without a witness;
    # the first of them decides the verdict, and the rest are never listed
    H, achieved = saturate(random_graph(2, 3, 1), 10**11, 1, rounds=1)
    assert (H.n, achieved) == (11, False)


def test_saturate_stops_at_the_vertex_limit(monkeypatch):
    # saturate(random_graph(3, 3, 1), 2, 1) ends at 67 vertices
    expected, _ = saturate(random_graph(3, 3, 1), 2, 1)
    monkeypatch.setattr(graphs, "MAX_VERTICES", 66)
    with pytest.raises(ValueError, match="67 vertices exceed the limit of 66"):
        saturate(random_graph(3, 3, 1), 2, 1)
    monkeypatch.setattr(graphs, "MAX_VERTICES", 67)
    assert saturate(random_graph(3, 3, 1), 2, 1) == (expected, True)


# -- embedding and partial isomorphisms ----------------------------------------


@pytest.fixture(scope="module")
def saturated_pair():
    A, ok_a = saturate(random_graph(3, 3, 21), 2, 21)
    B, ok_b = saturate(random_graph(3, 3, 22), 2, 22)
    assert ok_a and ok_b
    return A, B


def place(H, A):
    """H's vertices 0..n-1 placed in A by forth steps from the empty map."""
    p = PartialIso()
    for v in range(H.n):
        p = extend_iso(H, A, p, v)
    return tuple(w for _, w in p.pairs)


def test_embed_empty(saturated_pair):
    A, _ = saturated_pair
    empty = ColouredGraph(m=3, n=0, colours=np.zeros((0, 0), dtype=np.int32))
    assert place(empty, A) == ()


def test_embed_single_edge(saturated_pair):
    A, _ = saturated_pair
    for c in (1, 2, 3):
        H = graph_from_edges(3, 2, [[0, 1, c]])
        u, v = place(H, A)
        assert colour_of(A, u, v) == c


def test_embed_triangle(saturated_pair):
    A, _ = saturated_pair
    H = graph_from_edges(3, 3, [[0, 1, 1], [0, 2, 2], [1, 2, 3]])
    images = place(H, A)
    assert len(set(images)) == 3
    for u, v, c in graph_pairs(H):
        assert colour_of(A, images[u], images[v]) == c


def test_embed_raises_when_unsaturated():
    target = single_edge(1, m=2)
    H = graph_from_edges(2, 3, [[0, 1, 1], [0, 2, 2], [1, 2, 2]])
    with pytest.raises(WitnessMissingError):
        place(H, target)
    with pytest.raises(ValueError, match="palette sizes differ"):
        place(graph_from_edges(3, 2, [[0, 1, 3]]), target)


def test_partial_iso_validation():
    with pytest.raises(ValueError):
        PartialIso(((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        PartialIso(((0, 1), (2, 1)))
    p = PartialIso(((2, 5), (0, 3)))
    assert p.pairs == ((0, 3), (2, 5))
    assert p.inverse().pairs == ((3, 0), (5, 2))


def test_validate_partial_iso_checks_colours():
    A = graph_from_edges(2, 2, [[0, 1, 1]])
    B = graph_from_edges(2, 2, [[0, 1, 2]])
    with pytest.raises(ValueError):
        validate_partial_iso(A, B, PartialIso(((0, 0), (1, 1))))


def test_extend_iso_empty_map_hits_smallest_vertex(saturated_pair):
    A, B = saturated_pair
    p = extend_iso(A, B, PartialIso(), 5)
    assert p.as_dict() == {5: 0}


def test_extend_iso_respects_colours(saturated_pair):
    A, B = saturated_pair
    p = extend_iso(A, B, PartialIso(((0, 0),)), 1)
    w = p.as_dict()[1]
    assert colour_of(B, 0, w) == colour_of(A, 0, 1)


def test_extend_iso_rejects_mapped_vertex(saturated_pair):
    A, B = saturated_pair
    with pytest.raises(ValueError):
        extend_iso(A, B, PartialIso(((0, 0),)), 0)


# -- serialization ---------------------------------------------------------------


def test_json_roundtrip_identity():
    G = random_graph(6, 4, 3)
    assert ColouredGraph.from_json(G.to_json()) == G
    d = G.to_json_dict()
    assert ColouredGraph.from_json_dict(d).to_json_dict() == d


DIGIT_EDGES = [(10, 9), (11, 10), (100, 99), (101, 100), (1001, 255)]


def test_to_json_dict_matches_the_pairs_loop():
    # 221 vertices are written in blocks of 73 rows, so the last block holds
    # only row 219, the final row with a pair; 300 vertices take six blocks
    assert 219 % (graphs.SWEEP_BLOCK_ENTRIES // 222) == 0
    # 10, 100 and 1000 are where vertex ids and colours gain a digit
    for n, m in [(0, 2), (1, 2), (2, 2), (37, 4), (221, 3), (300, 5)] + DIGIT_EDGES:
        G = random_graph(n, m, 11)
        looped = {"m": m, "n": n, "colours": [[u, v, c] for u, v, c in graph_pairs(G)]}
        assert G.to_json() == json.dumps(looped, sort_keys=True) + "\n"
        assert G.to_json_dict() == looped


def test_json_chunks_never_hold_every_triple():
    # the list of all 1,999,000 [u, v, c] triples of 2000 vertices takes about
    # 350 MB. Its first ten row blocks must fit in 16 MB, as they could not if
    # that list were built first or if each block's ~2.5 MB were kept. Only ten
    # are read: tracing all 250 takes some 40 s.
    n = 2000
    C = (np.add.outer(np.arange(n), np.arange(n)) % 3 + 1).astype(np.int32)
    np.fill_diagonal(C, 0)
    chunks = ColouredGraph(m=3, n=n, colours=C).json_chunks()
    tracemalloc.start()
    try:
        written = sum(len(chunk) for chunk in itertools.islice(chunks, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written > 2 * 10**6
    assert peak < 16 * 2**20


def test_small_graphs_take_small_blocks():
    # a block of rows reaching past the last pair would allocate a 2 MB index
    # array to draw a 3-vertex graph and 0.2 MB to write it
    random_graph(3, 3, 0).to_json()
    tracemalloc.start()
    try:
        G = random_graph(3, 3, 0)
        G.to_json(), to_dot(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_digit_records_strip_to_the_integers():
    # the tables at each digit edge up to the vertex limit, and at the limit
    edges = [10**w + d for w in range(len(str(graphs.MAX_VERTICES))) for d in (-1, 0, 1)]
    for count in sorted({0, graphs.MAX_VERTICES, *edges}):
        table = graphs._digits(count)
        width, raw = table.dtype.itemsize, table.tobytes()
        assert width == len(str(max(count - 1, 0))) and len(raw) == count * width
        records = [raw[i * width : (i + 1) * width] for i in range(count)]
        assert [r.replace(b"\0", b"").decode() for r in records] == [str(i) for i in range(count)]
    vertex = graphs._digits(11)
    assert graphs._text(graphs._join(b"<", (vertex, np.array([0, 10])), b">\n")) == "<0>\n<10>\n"
    with pytest.raises(ValueError, match="NUL"):
        graphs._join(b"<\0", (vertex, np.array([0, 10])))


def test_json_reader_rejects_booleans_as_integers():
    with pytest.raises(ValueError):
        ColouredGraph.from_json('{"m": true, "n": 2, "colours": [[0, 1, 1]]}')
    with pytest.raises(ValueError):
        ColouredGraph.from_json('{"m": 2, "n": true, "colours": []}')
    with pytest.raises(ValueError):
        ColouredGraph.from_json('{"m": 2, "n": 2, "colours": [[false, true, 2]]}')
    with pytest.raises(ValueError):
        graph_from_edges(2, 2, [[0, 1, True]])


def test_json_deterministic():
    a = random_graph(5, 3, 9).to_json()
    b = random_graph(5, 3, 9).to_json()
    assert a == b


def test_json_reader_rejects_missing_pair():
    with pytest.raises(ValueError):
        graph_from_edges(2, 3, [[0, 1, 1], [0, 2, 1]])


def test_json_reader_rejects_duplicate_pair():
    with pytest.raises(ValueError):
        graph_from_edges(2, 2, [[0, 1, 1], [1, 0, 2]])


def test_json_reader_rejects_bad_colour():
    with pytest.raises(ValueError):
        graph_from_edges(2, 2, [[0, 1, 3]])
    with pytest.raises(ValueError):
        graph_from_edges(2, 2, [[0, 1, 0]])


def test_json_reader_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        graph_from_edges(2, 2, [[0, 0, 1]])
    with pytest.raises(ValueError):
        graph_from_edges(2, 2, [[0, 2, 1]])


def test_json_reader_counts_pairs_before_allocating():
    # the 2000000 x 2000000 matrix would need 14.6 TiB
    with pytest.raises(ValueError, match="expected 1999999000000 pairs, got 0"):
        ColouredGraph.from_json('{"m": 3, "n": 2000000, "colours": []}')
    with pytest.raises(ValueError, match="nonnegative"):
        graph_from_edges(3, -2, [[0, 1, 1]] * 3)


def test_json_reader_applies_the_vertex_limit(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 3)
    with pytest.raises(ValueError, match="4 vertices exceed the limit of 3"):
        one_colour(4)
    assert one_colour(3).n == 3


def test_json_reader_rejects_malformed_document():
    with pytest.raises(ValueError):
        ColouredGraph.from_json("[1, 2, 3]")
    with pytest.raises(ValueError):
        ColouredGraph.from_json(json.dumps({"m": 2, "n": 1}))
    for entry in (5, None):
        with pytest.raises(ValueError, match="colour entry"):
            ColouredGraph.from_json(json.dumps({"m": 2, "n": 2, "colours": [entry]}))
    # colours are stored as int32
    with pytest.raises(ValueError, match="palette size"):
        ColouredGraph.from_json(json.dumps({"m": 2**32, "n": 2, "colours": [[0, 1, 2**32]]}))
    # deeper than the JSON parser recurses; the spec reader shares the loader
    from coloursym.equivariant import OrbitGraphSpec

    for reader in (ColouredGraph.from_json, OrbitGraphSpec.from_json):
        with pytest.raises(ValueError, match="nests too deeply"):
            reader("[" * 100000 + "]" * 100000)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def near_graph_documents(draw):
    """A valid graph document with at most one part replaced by any JSON value."""
    doc = random_graph(draw(st.integers(0, 4)), draw(st.integers(2, 4)), 0).to_json_dict()
    junk = draw(st.integers(-1, 5) | json_values)
    part = draw(st.sampled_from(["none", "m", "n", "colours", "triple", "number"]))
    if part in ("m", "n", "colours"):
        doc[part] = junk
    elif part != "none" and doc["colours"]:
        i = draw(st.integers(0, len(doc["colours"]) - 1))
        if part == "triple":
            doc["colours"][i] = junk
        else:
            doc["colours"][i][draw(st.integers(0, 2))] = junk
    return doc


@settings(max_examples=300, deadline=None)
@given(
    document=json_values | near_graph_documents(),
    n=st.integers(0, 6),
    m=st.integers(2, 4),
    seed=st.integers(0, 99),
    data=st.data(),
)
def test_json_reader_contract(document, n, m, seed, data):
    """Any JSON value loads or raises ValueError; a valid graph loads from
    its pairs in any order and orientation, with unknown keys ignored."""
    try:
        assert isinstance(ColouredGraph.from_json(json.dumps(document)), ColouredGraph)
    except ValueError:
        pass
    G = random_graph(n, m, seed)
    triples = data.draw(st.permutations(G.to_json_dict()["colours"]))
    flips = data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    key = data.draw(st.text(max_size=5).filter(lambda k: k not in ("m", "n", "colours")))
    shuffled = {
        "m": m,
        "n": n,
        "colours": [[v, u, c] if flip else [u, v, c] for (u, v, c), flip in zip(triples, flips)],
        key: data.draw(json_values),
    }
    assert ColouredGraph.from_json(json.dumps(shuffled)) == G


def test_to_dot_matches_the_pairs_loop():
    for n, m in [(0, 2), (1, 2), (2, 3)] + DIGIT_EDGES:
        G = random_graph(n, m, 5)
        assert to_dot(G) == dot_by_pairs(G), (n, m)


def test_dot_export():
    G = graph_from_edges(3, 3, [[0, 1, 2], [0, 2, 1], [1, 2, 3]])
    dot = to_dot(G)
    assert dot.startswith("graph coloured {")
    assert "0 -- 1 [color_index=2];" in dot
    assert "1 -- 2 [color_index=3];" in dot
    empty = ColouredGraph(m=2, n=0, colours=np.zeros((0, 0), dtype=np.int32))
    assert to_dot(empty) == "graph coloured {\n}\n"


def test_graph_constructor_validation():
    with pytest.raises(ValueError):
        ColouredGraph(m=2, n=2, colours=np.array([[0, 1], [2, 0]], dtype=np.int32))
    with pytest.raises(ValueError):
        ColouredGraph(m=2, n=2, colours=np.array([[1, 1], [1, 1]], dtype=np.int32))
    with pytest.raises(ValueError):
        ColouredGraph(m=2, n=2, colours=np.array([[0, 3], [3, 0]], dtype=np.int32))
    for off in (0, -1):
        with pytest.raises(ValueError):
            ColouredGraph(m=2, n=2, colours=np.array([[0, off], [off, 0]], dtype=np.int32))
    # the range is checked before colours narrow to uint8: 2^32 + 1 would wrap to 1
    for dtype in (np.int64, np.uint64):
        with pytest.raises(ValueError, match="1..2"):
            ColouredGraph(m=2, n=2, colours=np.array([[0, 2**32 + 1], [2**32 + 1, 0]], dtype=dtype))
    for bad in (np.array([[0, 1.7], [1.7, 0]]), np.array([[0, 1.0], [1.0, 0]]), np.eye(2, dtype=bool)):
        with pytest.raises(ValueError, match="integers"):
            ColouredGraph(m=2, n=2, colours=bad)
    for m in (0, graphs.MAX_PALETTE + 1, 2**40):
        with pytest.raises(ValueError, match="palette size"):
            ColouredGraph(m=m, n=0, colours=np.zeros((0, 0), dtype=np.int32))
    G = ColouredGraph(m=2, n=2, colours=np.array([[0, 2], [2, 0]], dtype=np.uint64))
    assert G.colours.dtype == np.uint8 and colour_of(G, 0, 1) == 2
    assert repr(G) == "ColouredGraph(m=2, n=2)"  # the matrix stays out of the repr
    assert ColouredGraph(m=graphs.MAX_PALETTE, n=0, colours=np.zeros((0, 0), dtype=np.int8)).n == 0


def test_colours_are_checked_before_they_narrow_to_uint8():
    # 256 would wrap to 0 and 2^32 + 1 to 1; either must be refused, never stored
    top = graphs.MAX_PALETTE
    for bad in (256, 2**32 + 1):
        C = np.array([[0, bad, 1], [bad, 0, 1], [1, 1, 0]], dtype=np.int64)
        kept = C.copy()
        with pytest.raises(ValueError, match=f"colours must lie in 1..{top}"):
            ColouredGraph(m=top, n=3, colours=C)
        assert np.array_equal(C, kept) and C.dtype == np.int64 and C.flags.writeable
    C = np.array([[0, top], [top, 0]], dtype=np.int64)
    G = ColouredGraph(m=top, n=2, colours=C)
    assert G.colours.dtype == np.uint8 and colour_of(G, 0, 1) == top
    assert C.dtype == np.int64 and C.flags.writeable and not G.colours.flags.writeable
    # a writable uint8 matrix is copied, so writing it later leaves the graph alone
    D = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    H = ColouredGraph(m=2, n=2, colours=D)
    D[0, 1] = D[1, 0] = 2
    assert D.flags.writeable and colour_of(H, 0, 1) == 1


def test_row_blocks_cover_every_row_once_in_order(monkeypatch):
    def spans(*args):
        return [(block.start, block.stop) for block in row_blocks(*args)]

    assert spans(0, 5, 10) == [] and spans(0, 0) == []
    assert spans(1, 5, 10) == [(0, 1)] and spans(1, 0) == [(0, 1)]
    assert spans(7, 0, 3) == [(0, 3), (3, 6), (6, 7)]  # width 0 counts as one entry a row
    assert spans(7, 2, 6) == [(0, 3), (3, 6), (6, 7)]  # 3 does not divide 7: the last is clamped
    assert spans(3, 10, 4) == [(0, 1), (1, 2), (2, 3)]  # entries < width: one row a block
    assert spans(4, 2, 100) == [(0, 4)]
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 4)  # the default is read at call time
    assert spans(5, 2) == [(0, 2), (2, 4), (4, 5)]


def test_only_graphs_binds_the_block_size():
    # one rule for every matrix pass: the other modules go through row_blocks
    import importlib
    import pkgutil

    import coloursym

    names = [name for _, name, _ in pkgutil.iter_modules(coloursym.__path__)]
    modules = [coloursym] + [importlib.import_module(f"coloursym.{name}") for name in names]
    bound = [module.__name__ for module in modules if "ROW_BLOCK_ENTRIES" in vars(module)]
    assert bound == ["coloursym.graphs"]


def test_symmetry_is_checked_tile_by_tile(monkeypatch):
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 9)  # 3 x 3 tiles of a 7 x 7 matrix
    G = random_graph(7, 3, 4)
    for u, v in [(0, 1), (1, 5), (6, 2), (3, 6)]:
        C = np.array(G.colours)
        C[u, v] = C[u, v] % 3 + 1
        with pytest.raises(ValueError, match="symmetric"):
            ColouredGraph(m=3, n=7, colours=C)
    assert ColouredGraph(m=3, n=7, colours=np.array(G.colours)) == G


def test_every_builder_returns_uint8_colours():
    from coloursym.equivariant import assemble_orbit_graph, sym_complement

    G = graph_from_edges(3, 3, [[0, 1, 2], [0, 2, 1], [1, 2, 3]])
    spec, report = sym_complement(3, 2, 0)
    built = [G, random_graph(6, 4, 2), recolour(G, (2, 3, 1)), saturate(G, 1, 0)[0]]
    for H in built + [assemble_orbit_graph(spec), report.graph]:
        assert H.colours.dtype == np.uint8 and not H.colours.flags.writeable
