"""Acceptance suite: one test per criterion, each printing a verdict line
and enforcing its time budget. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines."""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coloursym.cli import main
from coloursym.equivariant import (
    FixedPointFreeInvolution,
    OrbitGraphSpec,
    build_pair_colouring,
    make_orbit_spec,
    pair_colour,
    pair_colour_matrix,
    sym_complement,
)
from coloursym.graphs import (
    ColouredGraph,
    PartialIso,
    check_no_fpf_colour_involution,
    find_witness,
    random_graph,
    saturate,
    witness_queries,
)
from coloursym.perms import apply, double_coset_lower_bound
from coloursym.spin import CoverKind, order_rule_table

from helpers import all_two_colourings, back_and_forth, obstruction_by_full_checks, sym_group


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"[{verdict}] {name} ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_criterion_1_odd_palette_m3_exhaustive():
    with criterion("criterion 1: odd palette m=3, exhaustive", 1.0):
        spec, report = sym_complement(3, 3, seed=0)
        graph = spec.vertex_count
        assert graph == 18
        assert report.exhaustive
        assert report.all_consistent
        assert report.kernel_size == 1
        G = spec.group
        f = spec.colouring
        checked = 0
        for x, y in itertools.permutations(range(6), 2):
            assert pair_colour(f, x, y) == pair_colour(f, y, x)
            for g in range(6):
                assert pair_colour(
                    f, G.product(x, g), G.product(y, g)
                ) == apply(G.phi[g], pair_colour(f, x, y))
                checked += 1
        assert checked == 6 * 5 * 6


def test_criterion_2_odd_palette_m5_mass_checked():
    with criterion("criterion 2: odd palette m=5, 120 elements", 60.0):
        spec, report = sym_complement(5, 1, seed=0)
        assert spec.vertex_count == 120
        assert report.exhaustive
        assert report.all_consistent
        assert report.kernel_size == 1
        # pair-colouring laws over every (x, y, g) triple: symmetry plus
        # translation equivariance, far beyond the required 10^5 samples
        G = spec.group
        F = pair_colour_matrix(spec.colouring)
        assert np.array_equal(F, F.T)
        phi_table = np.zeros((G.size, G.m + 1), dtype=np.int32)
        phi_table[:, 1:] = np.asarray(G.phi, dtype=np.int32)
        triples = 0
        for g in range(G.size):
            col = G.mul[:, g]
            assert np.array_equal(F[np.ix_(col, col)], phi_table[g][F])
            triples += G.size * (G.size - 1)
        assert triples >= 100_000


def test_criterion_3_even_palette_obstruction():
    with criterion("criterion 3: even palette obstruction m in {2,4}", 60.0):
        for m in (2, 4):
            G = sym_group(m)
            for seed in range(100):
                with pytest.raises(FixedPointFreeInvolution):
                    build_pair_colouring(G, seed)
        for m in (2, 4):
            for n in range(6):
                for seed in range(50):
                    report = check_no_fpf_colour_involution(random_graph(n, m, seed))
                    assert report.passed
                    full = obstruction_by_full_checks(random_graph(n, m, seed))
                    assert not full.consistent_pairs and len(full.citations) == full.pairs_checked
        # every 2-colouring outright, up to five vertices
        for n in range(6):
            for G2 in all_two_colourings(n):
                assert check_no_fpf_colour_involution(G2).passed
                full = obstruction_by_full_checks(G2)
                assert not full.consistent_pairs and len(full.citations) == full.pairs_checked


def test_criterion_4_double_cover_order_rule():
    with criterion("criterion 4: double-cover order rule", 120.0):
        expected = {
            (4, CoverKind.TILDE): [(1, 4), (2, 4)],
            (4, CoverKind.HAT): [(1, 2), (2, 4)],
            (6, CoverKind.TILDE): [(1, 4), (2, 4), (3, 2)],
            (6, CoverKind.HAT): [(1, 2), (2, 4), (3, 4)],
        }
        for (m, kind), orders in expected.items():
            table = order_rule_table(m, kind, mode="exhaustive")
            assert table.passed
            assert [(row.r, row.expected_order) for row in table.rows] == orders
            for row in table.rows:
                assert row.observed_orders == (row.expected_order,)
                assert row.lifts_agree
                assert row.table_matches_direct  # brute-force oracle agrees
        for kind in (CoverKind.TILDE, CoverKind.HAT):
            table = order_rule_table(8, kind, mode="direct")
            assert table.passed
            by_r = {row.r: row for row in table.rows}
            assert by_r[4].observed_orders == (2,)


def test_criterion_5_supplement_construction(capsys):
    with criterion("criterion 5: supplements from the double covers", 300.0):
        passing = [("2", "tilde"), ("4", "tilde"), ("4", "hat"), ("6", "hat")]
        for m, cover in passing:
            code = main(["supplement", "--m", m, "--cover", cover, "--json"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0, (m, cover)
            names = {a["name"]: a for a in doc["assertions"]}
            assert names["kernel-order-two"]["passed"]
            assert names["kernel-is-centre"]["passed"]
        failing = [("2", "hat"), ("6", "tilde")]
        for m, cover in failing:
            code = main(["supplement", "--m", m, "--cover", cover, "--json"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 1, (m, cover)
            names = {a["name"]: a for a in doc["assertions"]}
            assert not names["supplement-condition"]["passed"]
            assert "blocking involution" in names["supplement-condition"]["detail"]
        code = main(["supplement", "--m", "8", "--cover", "tilde", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        names = {a["name"]: a for a in doc["assertions"]}
        assert not names["supplement-condition-tilde"]["passed"]
        assert not names["supplement-condition-hat"]["passed"]
        assert "no supplement" in names["both-covers-blocked"]["detail"]


def test_criterion_6_extension_property():
    with criterion("criterion 6: extension property and back-and-forth", 60.0):
        A, achieved = saturate(random_graph(3, 3, 1), 2, 1, rounds=8)
        assert achieved
        for q in witness_queries(A.n, 3, 2):
            assert find_witness(A, q) is not None
        B, achieved_b = saturate(random_graph(3, 3, 2), 2, 2, rounds=8)
        assert achieved_b
        for a in range(A.n):
            for b in range(B.n):
                p = back_and_forth(A, B, PartialIso(((a, b),)), 3)
                assert len(p) == 3


def test_criterion_7_double_coset_inequality():
    with criterion("criterion 7: double-coset counting inequality", 1.0):
        for m in range(2, 11):
            assert not double_coset_lower_bound(m, 1)
            for k in range(2, 11):
                assert double_coset_lower_bound(m, k)


def test_criterion_8_determinism_and_round_trips(tmp_path, capsys):
    with criterion("criterion 8: determinism and serialization", 5.0):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = main(
                ["gen-random", "--n", "15", "--m", "4", "--seed", "11",
                 "--out", str(path)]
            )
            capsys.readouterr()
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

        docs = []
        for _ in range(2):
            main(["complement", "--m", "3", "--seed", "4", "--json"])
            docs.append(json.loads(capsys.readouterr().out))
        for doc in docs:
            doc.pop("wall_time_s")
        assert docs[0] == docs[1]

        G = random_graph(9, 3, 2)
        assert ColouredGraph.from_json(G.to_json()) == G
        assert ColouredGraph.from_json(G.to_json()).to_json() == G.to_json()

        grp = sym_group(3)
        spec = make_orbit_spec(grp, build_pair_colouring(grp, 6), 2, 6)
        assert OrbitGraphSpec.from_json(spec.to_json()).to_json() == spec.to_json()
