"""Tests of the benchmark's own code: its oracles and its tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from coloursym import cli  # noqa: E402
from coloursym.graphs import find_witness, random_graph, witness_queries  # noqa: E402
from coloursym.spin import CoverKind, enumerate_cover  # noqa: E402


def run_cli(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json"])
    return code, json.loads(out.getvalue())


def set_detail(report: dict, name: str, detail: str, passed: bool = True) -> dict:
    edited = json.loads(json.dumps(report))
    for a in edited["assertions"]:
        if a["name"] == name:
            a["detail"], a["passed"] = detail, passed
    return edited


# -- orbit ---------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", checks.KINDS)
def test_cover_labels_match_the_documented_closure_order(m, kind):
    mine = checks.build_cover(m, kind)
    theirs = enumerate_cover(m, CoverKind(kind))
    assert mine.size == 2 * math.factorial(m) == theirs.group.size
    for g in range(m):  # generator g has label g + 1: the first products found
        assert np.array_equal(mine.right[g], theirs.group.mul[:, g + 1])
    assert mine.neg_unit == theirs.neg_unit_label


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", checks.KINDS)
def test_orbit_oracle_accepts_small_covers(tmp_path, m, kind):
    out = tmp_path / "graph.json"
    code, report = run_cli(
        "supplement", "--m", str(m), "--orbits", "2", "--cover", kind,
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    checks.judge_orbit(report, out, m, 2, kind)


@pytest.fixture(scope="module")
def orbit_m3(tmp_path_factory):
    out = tmp_path_factory.mktemp("orbit") / "graph.json"
    code, report = run_cli(
        "supplement", "--m", "3", "--orbits", "2", "--cover", "hat",
        "--seed", "3", "--out", str(out),
    )
    assert code == 0
    return report, out


def test_orbit_oracle_rejects_a_kernel_of_size_one(orbit_m3):
    report, out = orbit_m3
    edited = set_detail(report, "kernel-is-centre", "K = [0], the labels of +1 and -1")
    edited = set_detail(edited, "kernel-order-two", "|K| = 1 (supplement intersection needs 2)", False)
    with pytest.raises(checks.OracleError, match="kernel"):
        checks.judge_orbit(edited, out, 3, 2, "hat")


def test_orbit_oracle_rejects_a_recoloured_pair(orbit_m3, tmp_path):
    report, out = orbit_m3
    written = json.loads(out.read_text())
    u, v, c = written["graph"]["colours"][5]
    written["graph"]["colours"][5] = [u, v, c % 3 + 1]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(written))
    with pytest.raises(checks.OracleError, match="permute colours"):
        checks.judge_orbit(report, broken, 3, 2, "hat")


# -- cover -----------------------------------------------------------------------


def test_order_rule():
    tilde = [checks.expected_lift_order(r, "tilde") for r in range(1, 9)]
    hat = [checks.expected_lift_order(r, "hat") for r in range(1, 9)]
    assert tilde == [4, 4, 2, 2, 4, 4, 2, 2]
    assert hat == [2, 4, 4, 2, 2, 4, 4, 2]


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("kind", checks.KINDS)
def test_cover_oracle_accepts_small_covers(m, kind):
    code, report = run_cli("cover-table", "--m", str(m), "--cover", kind)
    assert code == 0
    checks.judge_cover(report, m, kind)


def test_cover_oracle_rejects_an_order_flipped_from_4_to_2():
    _, report = run_cli("cover-table", "--m", "4", "--cover", "tilde")
    row = next(a for a in report["assertions"] if a["name"] == "order-rule-r1")
    assert row["detail"].startswith("observed [4]")
    edited = set_detail(report, "order-rule-r1", row["detail"].replace("observed [4]", "observed [2]"))
    with pytest.raises(checks.OracleError, match="r=1"):
        checks.judge_cover(edited, 4, "tilde")


# -- witness ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_sweep_counts_the_queries_without_a_witness(seed, m, k):
    G = random_graph(6, m, seed)
    brute = sum(1 for q in witness_queries(G.n, m, k) if find_witness(G, q) is None)
    assert checks.unsatisfied_queries(G.colours.astype(np.int64), m, k) == brute


@pytest.fixture(scope="module")
def saturated(tmp_path_factory):
    work = tmp_path_factory.mktemp("witness")
    infile, out = work / "in.json", work / "out.json"
    infile.write_text(random_graph(3, 2, 5).to_json())
    code, report = run_cli(
        "saturate", "--in", str(infile), "--k", "2", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    return report, infile, out


def test_witness_oracle_accepts_a_two_colour_saturation(saturated):
    checks.judge_witness(*saturated, 2)


def test_witness_oracle_rejects_a_graph_with_one_witness_removed(saturated, tmp_path):
    report, infile, out = saturated
    grown = json.loads(out.read_text())
    C = checks.read_graph(grown)
    for w in range(C.shape[0] - 1, 2, -1):
        keep = np.arange(C.shape[0]) != w
        if checks.unsatisfied_queries(C[np.ix_(keep, keep)], 2, 2):
            break
    else:
        pytest.fail("every witness has a stand-in")
    n = C.shape[0] - 1
    fewer = {
        "m": 2,
        "n": n,
        "colours": [[u, v, int(C[keep][:, keep][u, v])] for u in range(n) for v in range(u + 1, n)],
    }
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(fewer))
    with pytest.raises(checks.OracleError, match="unsatisfied"):
        checks.judge_witness(report, infile, broken, 2)


def test_witness_oracle_rejects_a_changed_input_vertex(saturated, tmp_path):
    report, infile, out = saturated
    grown = json.loads(out.read_text())
    u, v, c = grown["colours"][0]
    assert (u, v) == (0, 1)
    grown["colours"][0] = [u, v, 3 - c]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(grown))
    with pytest.raises(checks.OracleError, match="keep the input"):
        checks.judge_witness(report, infile, broken, 2)


# -- tracer ----------------------------------------------------------------------


def test_tracer_counts_a_fresh_cover_and_restores_every_name(tmp_path):
    from coloursym import equivariant, spin

    before = (cli.enumerate_cover, spin.pin_mul, equivariant.is_colour_consistent)
    tracer = tracing.Tracer()
    for check in range(2):
        spin.enumerate_cover.cache_clear()
        tracer.current_check = check
        with tracer.installed():
            tracer.wrap("cli.main", cli.main)(
                ["supplement", "--m", "3", "--cover", "tilde", "--orbits", "2",
                 "--out", str(tmp_path / "g.json"), "--json"]
            )
    assert (cli.enumerate_cover, spin.pin_mul, equivariant.is_colour_consistent) == before
    figures = tracer.layer_metrics([0, 1])
    assert figures["spin.enumerate_cover.elements"] == 12
    assert figures["equivariant.verify_colour_group.elements_checked"] == 12
    assert figures["graphs.is_colour_consistent.calls"] == 12
    assert figures["graphs.is_colour_consistent.pairs"] == 12 * (24 * 23 // 2)
    assert figures["equivariant.assemble_orbit_graph.calls"] == 2
    assert figures["spin.pin_mul.calls"] == 12 * 3
    roots = [s for s, p in enumerate(tracer.parent) if p < 0]
    wall = sum(tracer.end[s] - tracer.start[s] for s in roots)
    total = sum(sum(t.values()) for t in tracer.self_times().values())
    assert total == pytest.approx(wall, rel=1e-9)


def test_a_reused_cover_counts_no_elements():
    from coloursym import spin

    tracer = tracing.Tracer()
    spin.enumerate_cover.cache_clear()
    for check in range(2):
        tracer.current_check = check
        with tracer.installed():
            cli.enumerate_cover(3, CoverKind.HAT)
    assert tracer.counts[0]["spin.enumerate_cover.elements"] == 12
    assert tracer.counts[1]["spin.enumerate_cover.elements"] == 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [*tracing.LAYER_METRICS, tracing.OVERHEAD_METRIC]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "checks_per_s", "check_p50_s", "setup_s", "peak_rss_mb"
    ]
    assert [w["name"] for w in spec["workloads"]] == ["orbit", "witness"]
