import ast
import dataclasses
import hashlib
import json
import os
import shlex
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coloursym import cli, equivariant, graphs, spin
from coloursym.cli import main
from coloursym.graphs import ColouredGraph, random_graph

from helpers import cover_index, graph_pairs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# -- gen-random ---------------------------------------------------------------


def test_gen_random_writes_graph(tmp_path, capsys):
    path = tmp_path / "g.json"
    for n in (6, 0, 1, 2, 23):
        code, doc = run_json(capsys, "gen-random", "--n", str(n), "--m", "3", "--seed", "5",
                             "--out", str(path))
        assert code == 0
        G = ColouredGraph.from_json(path.read_text())
        assert G == random_graph(n, 3, 5)
        # the histogram against a count over every pair
        counts = {c: 0 for c in (1, 2, 3)}
        for _, _, c in graph_pairs(G):
            counts[c] += 1
        (written,) = [a for a in doc["assertions"] if a["name"] == "graph-written"]
        histogram = " ".join(f"{c}:{counts[c]}" for c in (1, 2, 3))
        assert written["detail"] == f"n={n} m=3 colour histogram {histogram}"


def test_histogram_counts_a_block_of_rows_at_a_time(monkeypatch):
    # bincount copies what it counts to intp: 32 MB for the whole matrix of
    # 2000 vertices, about 8 MB for a block of ROW_BLOCK_ENTRIES entries
    G = random_graph(2000, 3, 1)
    whole = (np.bincount(G.colours.ravel(), minlength=4)[1:] // 2).tolist()
    tracemalloc.start()
    try:
        counted = cli._histogram(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == whole
    assert peak < 12 * 2**20
    monkeypatch.setattr(graphs, "ROW_BLOCK_ENTRIES", 50)  # blocks of 2 rows, the last of 1
    G = random_graph(23, 5, 2)
    assert cli._histogram(G) == (np.bincount(G.colours.ravel(), minlength=6)[1:] // 2).tolist()


def test_gen_random_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.json"
    code, _, _ = run(capsys, "gen-random", "--n", "0", "--m", "2", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["colours"] == []


def test_gen_random_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen-random", "--n", "12", "--m", "4", "--seed", "9", "--out", str(a))
    run(capsys, "gen-random", "--n", "12", "--m", "4", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_random_dot_export(tmp_path, capsys):
    path, dot = tmp_path / "g.json", tmp_path / "g.dot"
    code, _, _ = run(capsys, "gen-random", "--n", "3", "--m", "2",
                     "--out", str(path), "--dot", str(dot))
    assert code == 0
    assert "color_index=" in dot.read_text()


def test_gen_random_rejects_bad_palette(tmp_path, capsys):
    code, _, err = run(capsys, "gen-random", "--n", "3", "--m", "1",
                       "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "error" in err


# -- complement ----------------------------------------------------------------


def test_complement_m3_passes(capsys):
    code, doc = run_json(capsys, "complement", "--m", "3", "--orbits", "2")
    assert code == 0
    assert doc["passed"]
    names = {a["name"]: a for a in doc["assertions"]}
    assert names["all-elements-consistent"]["passed"]
    assert names["kernel-trivial"]["passed"]


def test_complement_m2_verifies_obstruction(capsys):
    code, doc = run_json(capsys, "complement", "--m", "2")
    assert code == 0
    names = {a["name"]: a for a in doc["assertions"]}
    assert names["obstruction-witness"]["passed"]
    assert "(1 2)" in names["obstruction-witness"]["detail"]
    assert names["no-consistent-fpf-involution"]["passed"]


def test_complement_m4_verifies_obstruction(capsys):
    code, doc = run_json(capsys, "complement", "--m", "4")
    assert code == 0
    assert doc["passed"]


def test_complement_writes_assembled_graph(tmp_path, capsys):
    path = tmp_path / "orbit.json"
    code, _, _ = run(capsys, "complement", "--m", "3", "--orbits", "2",
                     "--out", str(path))
    assert code == 0
    # the file is the sorted JSON of the verified graph and each vertex's (orbit, element)
    graph = equivariant.sym_complement(3, 2, 0)[1].graph
    doc = {
        "graph": {"colours": [[u, v, c] for u, v, c in graph_pairs(graph)], "m": 3, "n": 12},
        "vertex_labels": [{"orbit": v // 6, "element": v % 6} for v in range(12)],
    }
    assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("m", ["9"])
def test_complement_above_the_sym_cap_is_a_one_line_error(capsys, m):
    code, out, err = run(capsys, "complement", "--m", m)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "m, pairs",
    [(2, "(1 2)"), (4, "(1 2)(3 4)"), (6, "(1 2)(3 4)(5 6)"), (8, "(1 2)(3 4)(5 6)(7 8)"),
     (254, "".join(f"({i} {i + 1})" for i in range(1, 254, 2)))],
    ids=["2", "4", "6", "8", "254"],
)
def test_complement_even_m_names_a_fixed_point_free_witness(capsys, m, pairs):
    # even m is decided for every palette, and no seed is read
    code, doc = run_json(capsys, "complement", "--m", str(m))
    assert code == 0 and doc["passed"] and doc["seed"] == 0
    assert doc["assertions"][0] == {
        "name": "obstruction-witness",
        "passed": True,
        "detail": f"no pair colouring exists: involution acting as {pairs} fixes no colour",
    }


def test_complement_even_m_refuses_a_seed_before_any_work(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work ran before --seed was refused")

    for work in ("canonical_fpf_involution", "ObstructionReport", "sym_complement"):
        monkeypatch.setattr(cli, work, never)
    code, out, err = run(capsys, "complement", "--m", "4", "--seed", "9")
    assert (code, out) == (2, "")
    assert err == "error: complement --seed needs odd m, where the orbit graph is built; got m=4\n"


def test_complement_even_m_builds_no_group(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a group was built")

    for work in ("symmetric_group", "group_from_perms"):
        monkeypatch.setattr(equivariant, work, never)
    monkeypatch.setattr(cli, "random_graph", never)  # no graph's colours are read either
    code, doc = run_json(capsys, "complement", "--m", "4")
    assert code == 0 and doc["passed"]


@pytest.mark.parametrize("command", [["complement"], ["supplement", "--cover", "hat"]])
@pytest.mark.parametrize("m", [0, 1, 256, 10**20 - 1, 10**20])
def test_palette_outside_2_to_255_is_refused_before_any_work(capsys, monkeypatch, command, m):
    # odd supplement above m = 6 enumerates nothing, so only this bound refuses it
    def never(*args, **kwargs):
        raise AssertionError("work ran before the palette was checked")

    for work in ("sym_complement", "ObstructionReport", "canonical_fpf_involution",
                 "enumerate_cover", "broken_schur_relation"):
        monkeypatch.setattr(cli, work, never)
    code, out, err = run(capsys, command[0], "--m", str(m), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: palette size {m} is outside the limits 2..{graphs.MAX_PALETTE}\n"


@pytest.mark.parametrize(
    "argv", [["complement", "--m", "3"], ["supplement", "--m", "3", "--cover", "tilde"]]
)
def test_out_reuses_the_verified_orbit_graph(tmp_path, capsys, monkeypatch, argv):
    assemble = equivariant.assemble_orbit_graph
    specs = []
    monkeypatch.setattr(
        equivariant, "assemble_orbit_graph", lambda spec: specs.append(spec) or assemble(spec)
    )
    path = tmp_path / "orbit.json"
    code, _, _ = run(capsys, *argv, "--orbits", "2", "--out", str(path))
    assert code == 0
    assert len(specs) == 1
    doc = json.loads(path.read_text())
    assert ColouredGraph.from_json_dict(doc["graph"]) == assemble(specs[0])


def test_supplement_leaves_the_cover_elements_unbuilt(tmp_path, capsys):
    # the closure works on integer blade rows; PinElements are built on first read
    spin.enumerate_cover.cache_clear()
    path = tmp_path / "s5.json"
    code, _, _ = run(capsys, "supplement", "--m", "5", "--cover", "hat", "--orbits", "2",
                     "--out", str(path))
    assert code == 0 and path.exists()
    cover = spin.enumerate_cover(5, spin.CoverKind.HAT)
    assert spin.enumerate_cover.cache_info().hits == 1
    assert "elements" not in cover.__dict__
    assert all(cover_index(cover)[x] == g for g, x in enumerate(cover.elements))


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["complement", "--m", "5"],
            "c6575b9e18be2a5444065b8b584ab73578dd7bf256c8966cb5221685190f2b76",
        ),
        (
            ["supplement", "--m", "5", "--cover", "hat"],
            "726b8e69d10465deb886fd8b29ffb85f3dde7018914caffe731c694a58009650",
        ),
    ],
)
def test_seeded_out_files_keep_their_bytes(tmp_path, capsys, argv, digest):
    # the digests pin the group label order and every seeded draw
    path = tmp_path / "orbit.json"
    code, _, _ = run(capsys, *argv, "--orbits", "2", "--seed", "1", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, graph_seed, code, report_digest, out_digest",
    [
        (["supplement", "--m", "2", "--cover", "hat"], None, 1,
         "a2d2183cf78059967a5d9f64ec2704700d0c13f196d909605598d0553b807eaa", None),
        (["supplement", "--m", "6", "--cover", "tilde"], None, 1,
         "052ab0632cbc3f71fa121ac384b7216d5abd491c3c69609443123190bcb81c1f", None),
        (["supplement", "--m", "5", "--cover", "hat", "--orbits", "2", "--out", "out.json"], None, 0,
         "c300d21e7d93ca672d9dab58c76c5b5cdf076acdde27b377ef10059c80526e35",
         "8ece3e55ead53ef2779d635e3e0e3027fa64fb9b244e3498a3c0472e662b003d"),
        (["complement", "--m", "4"], None, 0,
         "d1e69ea69dddf1e396b7d6d1b11626aa42e6be2c73fbf85bdb41ca120c7e09fa", None),
        (["saturate", "--in", "in.json", "--k", "2", "--seed", "1", "--out", "out.json"], 1, 0,
         "469cf1e49ee74aa497f2a6103453a1d158f5d1e73343abaaa0c622d2d0dd21a3",
         "20d5cb0c972940cb2a2097a501c47ba75b23c0ed32e45d10b88ee2a16193457e"),
        (["saturate", "--in", "in.json", "--k", "2", "--seed", "1018370994", "--rounds", "8",
          "--out", "out.json"], 1018370994, 1,
         "0b208912e501c171fe6f82da10b13101cc0439aab5e6e9c3306d007c519771c1",
         "50a9831b4f42e6517558d51572d8484487b18734bd7fb00786431973a708c4a2"),
        (["cover-table", "--m", "4", "--cover", "tilde"], None, 0,
         "077e8aee514e7d4047ff3a265386c1ceacc9e205f013a15b2614ac772730bdea", None),
        (["complement", "--m", "5", "--orbits", "2", "--seed", "2", "--out", "out.json"], None, 0,
         "10c217e9c26bfd0ccf6fb5230471849d18e98806fdebaa33b4d29ff0131f5ed1",
         "03e6ec203c03ccc9b04eec824dcc7710c7920e3850f9650f428c29d35febf33c"),
        (["supplement", "--m", "4", "--cover", "tilde", "--orbits", "3", "--seed", "9",
          "--out", "out.json"], None, 0,
         "0fff4ddcf93e83e69d95aacef06d632e86e7610ef3413cf682b95787ad7984ca",
         "af34703202e2d6cdc9ec00ceb54969299bbf938db85704120b530e6673c4aa8b"),
    ],
    ids=["supplement-m2-hat-blocked", "supplement-m6-tilde-blocked", "supplement-m5-hat-out",
         "complement-m4", "saturate-achieved", "saturate-not-achieved", "cover-table-m4",
         "complement-m5-out", "supplement-m4-tilde-out"],
)
def test_reports_and_files_keep_their_bytes(
    tmp_path, capsys, monkeypatch, argv, graph_seed, code, report_digest, out_digest
):
    # sha256 of the JSON report without wall_time_s and of the file written;
    # relative paths keep the params alike in every directory. Each verdict
    # is printed once, so stderr stays empty.
    monkeypatch.chdir(tmp_path)
    if graph_seed is not None:
        Path("in.json").write_text(random_graph(3, 3, graph_seed).to_json())
    got, out, err = run(capsys, *argv, "--json")
    assert (got, err) == (code, "")
    doc = json.loads(out)
    del doc["wall_time_s"]
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == report_digest
    written = Path("out.json")
    assert (hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None) == out_digest


def test_readme_cli_examples_run_as_documented(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("coloursym ")]
    assert len(lines) > 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        if "complement --m 7" in command:
            continue  # about 3 s and 250 MB
        code, _, err = run(capsys, *shlex.split(command)[1:])
        assert (code, err) == ((1 if "fails" in comment else 0), ""), line


# -- supplement -----------------------------------------------------------------


def test_supplement_m2_tilde_passes(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "2", "--cover", "tilde",
                         "--orbits", "2")
    assert code == 0
    names = {a["name"]: a for a in doc["assertions"]}
    assert names["kernel-order-two"]["passed"]
    assert names["kernel-is-centre"]["passed"]


def test_supplement_m2_hat_fails_with_citation(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "2", "--cover", "hat")
    assert code == 1
    names = {a["name"]: a for a in doc["assertions"]}
    assert not names["supplement-condition"]["passed"]
    assert "(1 2)" in names["supplement-condition"]["detail"]


def test_supplement_m6_tilde_fails_citing_triple_transposition(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "6", "--cover", "tilde")
    assert code == 1
    detail = {a["name"]: a for a in doc["assertions"]}["supplement-condition"]["detail"]
    assert detail.count("(") == 3  # a (2,2,2) involution is cited


def test_supplement_m8_reports_both_covers_blocked(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "8", "--cover", "tilde")
    assert code == 1
    names = {a["name"]: a for a in doc["assertions"]}
    assert not names["supplement-condition-tilde"]["passed"]
    assert not names["supplement-condition-hat"]["passed"]
    assert not names["both-covers-blocked"]["passed"]


def test_supplement_m10_tilde_decides_on_its_own_cover(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "10", "--cover", "tilde")
    assert code == 0
    assert [(a["name"], a["passed"]) for a in doc["assertions"]] == [
        ("supplement-condition-tilde", True)
    ]


def test_supplement_m10_hat_blocked_also_reports_the_tilde_cover(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "10", "--cover", "hat")
    assert code == 1
    assert [(a["name"], a["passed"]) for a in doc["assertions"]] == [
        ("supplement-condition-hat", False),
        ("supplement-condition-tilde", True),
    ]


def test_supplement_m12_hat_passes(capsys):
    code, doc = run_json(capsys, "supplement", "--m", "12", "--cover", "hat")
    assert code == 0
    assert [(a["name"], a["passed"]) for a in doc["assertions"]] == [
        ("supplement-condition-hat", True)
    ]


@pytest.mark.parametrize("cover", ["tilde", "hat"])
def test_supplement_odd_m_above_enumeration_passes_vacuously(capsys, cover):
    code, doc = run_json(capsys, "supplement", "--m", "7", "--cover", cover)
    assert code == 0
    assert [a["name"] for a in doc["assertions"]] == ["supplement-condition"]
    detail = doc["assertions"][0]["detail"]
    assert "odd" in detail and "not run" in detail


@pytest.mark.parametrize("m", [14, 16, 24, 26, 32])
@pytest.mark.parametrize("cover", ["tilde", "hat"])
def test_supplement_decides_even_m_beyond_the_old_lift_limit(capsys, monkeypatch, m, cover):
    # the run's cover is usable when 8 does not divide m; the other cover is
    # reported only when the run's is blocked, and 8 | m blocks both
    def never(*args, **kwargs):
        raise AssertionError("an involution was lifted")

    for owner in (cli, spin):
        for work in ("lift", "order"):
            monkeypatch.setattr(owner, work, never)
    usable = {"tilde": m // 2 % 4 in (1, 2), "hat": m // 2 % 4 in (2, 3)}
    other = "hat" if cover == "tilde" else "tilde"
    expected = [(f"supplement-condition-{cover}", usable[cover])]
    if not usable[cover]:
        expected.append((f"supplement-condition-{other}", usable[other]))
        if not usable[other]:
            expected.append(("both-covers-blocked", False))
    code, doc = run_json(capsys, "supplement", "--m", str(m), "--cover", cover)
    assert [(a["name"], a["passed"]) for a in doc["assertions"]] == expected
    assert code == (0 if usable[cover] else 1)
    assert (m % 8 == 0) == (len(expected) == 3)
    for a in doc["assertions"][:2]:
        verdict = "order 4; cover usable" if a["passed"] else "order 2; cover blocked"
        assert a["detail"].startswith("Schur relations + parity + conjugacy: both lifts of (1 2)(3 4)")
        assert a["detail"].endswith(f"({m - 1} {m}) have {verdict}")


def test_supplement_m254_hat_passes_within_seconds(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, "supplement", "--m", "254", "--cover", "hat")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert [(a["name"], a["passed"]) for a in doc["assertions"]] == [
        ("supplement-condition-hat", True)
    ]
    assert doc["assertions"][0]["detail"].endswith("(253 254) have order 4; cover usable")


def test_a_broken_schur_relation_is_a_failing_assertion(capsys, monkeypatch):
    # t_3 = (e_3 + e_4)/sqrt(2) still squares to eps, anticommutes with t_1 and
    # braids with t_2, but it meets t_4 at 60 degrees, not 120: (t_3 t_4)^3 = +1
    real = spin.pair_vector

    def broken(a, b, m, kind):
        x = real(a, b, m, kind)
        return spin.PinElement(kind, m, 1, ((1 << 2, 1), (1 << 3, 1))) if (a, b) == (3, 4) else x

    monkeypatch.setattr(spin, "pair_vector", broken)
    code, out, err = run(capsys, "supplement", "--m", "10", "--cover", "tilde", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["assertions"] == [{
        "name": "supplement-condition-tilde",
        "passed": False,
        "detail": "Schur relations fail in the tilde kind: (t_3 t_4)^3 != -1",
    }]


# -- cover-table -----------------------------------------------------------------


def test_cover_table_m4(capsys):
    code, doc = run_json(capsys, "cover-table", "--m", "4", "--cover", "tilde")
    assert code == 0
    names = {a["name"]: a for a in doc["assertions"]}
    assert names["order-rule-r1"]["passed"]
    assert names["order-rule-r2"]["passed"]


def test_cover_table_m8_direct_notes_open_case(capsys):
    code, doc = run_json(capsys, "cover-table", "--m", "8", "--cover", "hat",
                         "--direct")
    assert code == 0
    names = {a["name"]: a for a in doc["assertions"]}
    note = names["supplement-note"]
    assert note["passed"]
    assert "no supplement" in note["detail"] and "hat cover" in note["detail"]
    assert "both" not in note["detail"]


def test_cover_table_supplement_note_reads_the_r_half_row(capsys, monkeypatch):
    real = cli.order_rule_table

    def order_four_at_r4(m, kind, mode="auto"):
        table = real(m, kind, mode)
        rows = tuple(
            dataclasses.replace(row, observed_orders=(4,)) if row.r == 4 else row
            for row in table.rows
        )
        return dataclasses.replace(table, rows=rows)

    monkeypatch.setattr(cli, "order_rule_table", order_four_at_r4)
    code, doc = run_json(capsys, "cover-table", "--m", "8", "--cover", "tilde",
                         "--direct")
    assert code == 1
    names = {a["name"]: a for a in doc["assertions"]}
    assert not names["supplement-note"]["passed"]
    assert "order [4] in the tilde cover" in names["supplement-note"]["detail"]


# -- saturate and obstruction ------------------------------------------------------


def test_saturate_roundtrip(tmp_path, capsys):
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    run(capsys, "gen-random", "--n", "3", "--m", "3", "--seed", "3", "--out", str(src))
    code, doc = run_json(capsys, "saturate", "--in", str(src), "--k", "2",
                         "--seed", "3", "--rounds", "8", "--out", str(dst))
    assert code == 0
    names = {a["name"]: a for a in doc["assertions"]}
    assert names["achieved"]["passed"]
    assert names["witness-sweep"]["passed"]
    G = ColouredGraph.from_json(dst.read_text())
    assert G.n > 3


def test_saturate_honest_failure_on_low_rounds(tmp_path, capsys):
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    run(capsys, "gen-random", "--n", "2", "--m", "3", "--seed", "0", "--out", str(src))
    code, doc = run_json(capsys, "saturate", "--in", str(src), "--k", "2",
                         "--rounds", "1", "--out", str(dst))
    assert code == 1
    assert not doc["passed"]


def test_obstruction_command(tmp_path, capsys):
    src = tmp_path / "g.json"
    run(capsys, "gen-random", "--n", "5", "--m", "2", "--seed", "1", "--out", str(src))
    code, doc = run_json(capsys, "obstruction", "--in", str(src))
    assert code == 0
    assert doc["passed"]


def test_obstruction_rejects_odd_palette(tmp_path, capsys):
    src = tmp_path / "g.json"
    run(capsys, "gen-random", "--n", "4", "--m", "3", "--seed", "1", "--out", str(src))
    code, _, err = run(capsys, "obstruction", "--in", str(src))
    assert code == 2
    assert "error" in err


def test_huge_vertex_count_is_a_one_line_error(tmp_path, capsys):
    huge, deep = tmp_path / "huge.json", tmp_path / "deep.json"
    huge.write_text('{"m": 3, "n": 2000000, "colours": []}')
    deep.write_text("[" * 100000 + "]" * 100000)  # deeper than the JSON parser recurses
    for src in (huge, deep):
        for argv in (
            ["obstruction", "--in", str(src)],
            ["saturate", "--in", str(src), "--k", "2", "--out", str(tmp_path / "out.json")],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-random", "--n", "1000000", "--m", "3", "--out", "never-written.json"],
        pytest.param(
            ["gen-random", "--n", "16384", "--m", "256", "--out", "never-written.json"],
            id="gen-random-huge-palette",
        ),
        ["supplement", "--m", "4", "--cover", "hat", "--orbits", "50000"],
        # even m above the palette bound: the relations are never checked
        pytest.param(["supplement", "--m", "256", "--cover", "hat"], id="supplement-even-m-256"),
        ["complement", "--m", "3", "--orbits", "100000"],
        ["coset-bound", "--m", "100000000", "--k", "100000000"],
        pytest.param(
            ["saturate", "--in", "small.json", "--k", "100000000", "--out", "never-written.json"],
            id="saturate-huge-k",
        ),
        pytest.param(
            ["saturate", "--in", "wide.json", "--k", "2", "--out", "never-written.json"],
            id="saturate-huge-palette",
        ),
        # below two colours no transposition fits; these printed an empty
        # passing table or ended in a traceback
        *[
            pytest.param(["cover-table", "--m", m, "--cover", cover, *direct],
                         id=f"cover-table-m{m}-{cover}{'-direct' if direct else ''}")
            for m, cover, direct in [
                ("-3", "tilde", ["--direct"]),
                ("1", "hat", ["--direct"]),
                ("0", "tilde", ["--direct"]),
                ("-8", "hat", ["--direct"]),
                ("1", "tilde", []),
                ("0", "hat", []),
            ]
        ],
    ],
    ids=lambda argv: argv[0],
)
def test_sizes_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # each would allocate gigabytes or run for hours if its size went unchecked
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.json").write_text(random_graph(3, 3, 1).to_json())
    (tmp_path / "wide.json").write_text('{"m": 100000, "n": 2, "colours": [[0, 1, 5]]}')
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "limit" in err


@pytest.mark.parametrize(
    "argv, work",
    [
        pytest.param(["gen-random", "--n", "4", "--m", "2", "--out", "missing/o.json"],
                     "random_graph", id="gen-random-out"),
        pytest.param(["gen-random", "--n", "4", "--m", "2", "--out", "o.json", "--dot", "missing/o.dot"],
                     "random_graph", id="gen-random-dot"),
        pytest.param(["saturate", "--in", "small.json", "--k", "2", "--out", "missing/o.json"],
                     "saturate", id="saturate"),
        pytest.param(["supplement", "--m", "5", "--cover", "hat", "--out", "missing/o.json"],
                     "enumerate_cover", id="supplement"),
        pytest.param(["complement", "--m", "3", "--out", "missing/o.json"],
                     "sym_complement", id="complement"),
    ],
)
def test_output_paths_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.json").write_text(random_graph(3, 3, 1).to_json())

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output paths were checked")

    monkeypatch.setattr(cli, work, never)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing/o." in err
    assert [p.name for p in tmp_path.iterdir()] == ["small.json"]  # no --out left behind


@pytest.mark.parametrize(
    "dot, existing",
    [(dot, existing) for dot in ["g.json", "./g.json", "sub/../g.json", "link.json"]
     for existing in (False, True)] + [("hard.json", True)],
)
def test_out_and_dot_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, dot, existing):
    # the DOT text would overwrite the graph, yet both were reported written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to("g.json")  # dangling until g.json exists
    if existing:
        (tmp_path / "g.json").write_text("kept")
        (tmp_path / "hard.json").hardlink_to("g.json")
    before = sorted((p.name, p.read_text()) for p in tmp_path.glob("*.json") if p.exists())

    def never(*args, **kwargs):
        raise AssertionError("random_graph ran before the output paths were checked")

    monkeypatch.setattr(cli, "random_graph", never)
    code, out, err = run(capsys, "gen-random", "--n", "4", "--m", "2", "--out", "g.json", "--dot", dot)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "same file" in err
    assert sorted((p.name, p.read_text()) for p in tmp_path.glob("*.json") if p.exists()) == before


def test_saturate_with_a_huge_k_ends_within_seconds(tmp_path, capsys):
    # from 2 vertices and 3 colours the second sweep, over 11 vertices,
    # reads 4^11 queries and nearly all miss; at the first of them it is
    # refused, since its vertices would grow the graph past the sweep limit
    src = tmp_path / "pair.json"
    src.write_text(random_graph(2, 3, 1).to_json())
    out = tmp_path / "never-written.json"
    start = time.perf_counter()
    code, stdout, err = run(capsys, "saturate", "--in", str(src), "--k", "99999999999", "--out", str(out))
    assert time.perf_counter() - start < 5
    assert code == 2 and stdout == ""
    assert err == (
        "error: saturating 11 vertices and 3 colours at k = 99999999999 grows the graph to at "
        f"least 11 + 3^11 vertices, and the queries over them exceed the limit of "
        f"{graphs.MAX_SWEEP_QUERIES} per sweep\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "n, m, k, size",
    [(2, 200, "2", 2), (2, 100, "2", 2), (3, 2, "99999999999", 11), (1, 2, "99999999999", 11)],
)
def test_saturate_bound_to_hit_the_sweep_limit_ends_at_once(tmp_path, capsys, n, m, k, size):
    # each ran for 13 s (m = 2) to 95 s (m = 200) before the sweep or vertex
    # limit stopped it; the sweep over `size` vertices must give each of the
    # m^size queries on one tuple its own new vertex
    src = tmp_path / "g.json"
    src.write_text(random_graph(n, m, 1).to_json())
    out = tmp_path / "never-written.json"
    start = time.perf_counter()
    code, stdout, err = run(capsys, "saturate", "--in", str(src), "--k", k, "--out", str(out))
    assert time.perf_counter() - start < 2
    assert (code, stdout) == (2, "")
    assert err == (
        f"error: saturating {size} vertices and {m} colours at k = {k} grows the graph to at least "
        f"{size} + {m}^{size} vertices, and the queries over them exceed the limit of "
        f"{graphs.MAX_SWEEP_QUERIES} per sweep\n"
    )
    assert not out.exists()


def test_graph_files_are_read_up_to_a_byte_limit(tmp_path, capsys):
    limit = graphs.MAX_GRAPH_FILE_BYTES
    text = random_graph(4, 2, 1).to_json()
    exact, over = tmp_path / "exact.json", tmp_path / "over.json"
    exact.write_text(text + " " * (limit - len(text)))
    over.write_text(text + " " * (limit + 1 - len(text)))
    assert run(capsys, "obstruction", "--in", str(exact))[0] == 0
    for argv in (["obstruction"], ["saturate", "--k", "1", "--out", str(tmp_path / "o.json")]):
        code, out, err = run(capsys, *argv, "--in", str(over))
        assert (code, out) == (2, "")
        assert err == f"error: graph file {over} exceeds the limit of {limit} bytes\n"
    assert not (tmp_path / "o.json").exists()


def test_a_graph_pipe_is_read_no_further_than_the_byte_limit(tmp_path, capsys):
    limit = graphs.MAX_GRAPH_FILE_BYTES
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)

    def feed():
        try:
            with open(pipe, "wb") as sink:
                sink.write(b" " * (limit + (1 << 20)))
        except BrokenPipeError:  # the reader closed the pipe after limit + 1 bytes
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    code, out, err = run(capsys, "obstruction", "--in", str(pipe))
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert (code, out) == (2, "")
    assert err == f"error: graph file {pipe} exceeds the limit of {limit} bytes\n"


@pytest.mark.parametrize(
    "argv, work",
    [
        pytest.param(["supplement", "--m", "7", "--cover", "hat"], "broken_schur_relation", id="supplement-m7"),
        pytest.param(["supplement", "--m", "10", "--cover", "tilde"], "broken_schur_relation",
                     id="supplement-m10"),
        pytest.param(["complement", "--m", "4"], "canonical_fpf_involution", id="complement-m4"),
    ],
)
def test_out_is_refused_where_no_graph_is_built(tmp_path, capsys, monkeypatch, argv, work):
    # these branches build no orbit graph, so --out would be dropped silently
    monkeypatch.chdir(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was refused")

    monkeypatch.setattr(cli, work, never)
    code, out, err = run(capsys, *argv, "--out", "o.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "--out" in err
    assert list(tmp_path.iterdir()) == []


# Every subcommand branch, and for each optional flag a value other than its
# default with the sign in the report (or the files) that the branch read it.
BRANCHES = {
    "gen-random": ["gen-random", "--n", "4", "--m", "3", "--out", "g.json"],
    "complement-odd": ["complement", "--m", "3"],
    "complement-even": ["complement", "--m", "4"],
    "supplement-enumerated": ["supplement", "--m", "3", "--cover", "tilde"],
    "supplement-odd-above": ["supplement", "--m", "7", "--cover", "hat"],
    "supplement-even-above": ["supplement", "--m", "10", "--cover", "tilde"],
    "cover-table-exhaustive": ["cover-table", "--m", "4", "--cover", "hat"],
    "cover-table-direct": ["cover-table", "--m", "8", "--cover", "hat"],
    "saturate": ["saturate", "--in", "in.json", "--k", "1", "--out", "s.json"],
    "obstruction": ["obstruction", "--in", "in.json"],
    "coset-bound": ["coset-bound"],
}
FLAG_VALUES = {
    "--seed": (["--seed", "31"], lambda doc: doc["seed"] == 31),
    "--orbits": (["--orbits", "3"], lambda doc: doc["params"]["orbits"] == 3),
    "--out": (["--out", "o.json"], lambda doc: Path("o.json").exists()),
    "--dot": (["--dot", "g.dot"], lambda doc: Path("g.dot").exists()),
    "--direct": (["--direct"], lambda doc: doc["params"]["mode"] == "direct"),
    "--rounds": (["--rounds", "3"], lambda doc: doc["params"]["rounds"] == 3),
    "--m": (["--m", "3", "--k", "2"], lambda doc: doc["params"] == {"m": 3, "k": 2}),
    "--k": (["--k", "2", "--m", "3"], lambda doc: doc["params"] == {"m": 3, "k": 2}),
}
UNREAD = {("complement-even", flag) for flag in ("--orbits", "--seed", "--out")} | {
    (branch, flag)
    for branch in ("supplement-odd-above", "supplement-even-above")
    for flag in ("--orbits", "--seed", "--out")
}


def subcommands(argv):
    """The subparsers of the parser built for argv, by command name."""
    return next(a for a in cli._build_parser(argv)._actions if a.dest == "command").choices


def optional_flags(command):
    return [
        action.option_strings[0]
        for action in subcommands([command])[command]._actions
        if action.option_strings and not action.required and action.dest not in ("help", "json")
    ]


def test_every_subcommand_has_a_branch_here():
    commands = set(subcommands([]))
    assert commands == {argv[0] for argv in BRANCHES.values()}
    for command in commands:  # each command's own parser holds its arguments
        assert [a.dest for a in subcommands([command])[command]._actions][-1] == "json"


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        ("-h", 0, "e3ef47db24ac562d41327ac0c497193dca821555034e3d6135543248067eb3cb"),
        ("nope", 2, "142d85206658f3a4fe156c98a02d5a15eb74b5db22c05496676a2924493c9ab5"),
        ("gen-random -h", 0, "51bb2709d15af0134d6de666fcf6ab0e4e4538df51309e193dbc17641c2475e3"),
        ("complement -h", 0, "0a3fd45d4e133070be5deaf4faac2233ce761ba70a967374074c826cedfd53d8"),
        ("supplement -h", 0, "b7ce4a8d6962c562d086d9b7826eed7b76e135edf8936b4b512416324ad97fed"),
        ("cover-table -h", 0, "b22637cab63b6c4da325afa79000174d20f4573cf416841bba68b426f735cb88"),
        ("saturate -h", 0, "ddfed1934a95f22c6db976f7f386816506d1bd6257910220cee86031f59bdf36"),
        ("obstruction -h", 0, "dadfc8186f72aa06adab9537c079cc54e471af58948a268538892307a1aada22"),
        ("coset-bound -h", 0, "e33ff6396dcf999c702312e67556815aed0556ad9bf5cfc9797bb9e2f870fb88"),
        ("gen-random", 2, "fa94f735a827577cf171782bc28a6d4229c12d6d51ad63e03fdbe950d4052d68"),
        ("complement", 2, "697487b86f886d3b13aee625bc8b50937b957f4913f7cc2c4b797bf0686f81cf"),
        ("supplement --m 3", 2, "5bb5955d311f43bea1c0d582f60db0bf85c9c06bf77add14800984754d8b930b"),
        ("cover-table --cover hat", 2, "654f99138e76c252f02433e980a1c3c4d511a1462aa730d0ab7960f4fd0db6f5"),
        ("saturate --in a --out o", 2, "a3df296eb3e28c3557062c8676627388925bec57654a3878a9dd39101e84a71e"),
        ("obstruction", 2, "3ddf52290db4b891b01fc8dd5a513389697ea6bbf91991fa4c1714a47ee7a736"),
        ("gen-random --n x --m 3 --out o", 2, "a2af5f51dd7687f8fc264153aeb72827307287f7140be820c6537d414db3da8e"),
        ("complement --m x", 2, "f55689b782c24b50cbb7f4dadf64842c5c031ca4493d8a993840769a03d44d78"),
        ("supplement --m x --cover hat", 2, "e8b9d429e244aeb2d90e3398a6400606a722b8eb4d3242bac114cb55ef2ba5d2"),
        ("cover-table --m x --cover hat", 2, "979787f6b3a909b183b94afafe2d2383cb8f700d13e488172c741e4e7e6a42ff"),
        ("saturate --in a --k x --out o", 2, "7f3d60195a22d56afde8fe44f90902e61eae835e7d57954986463e7458c83913"),
        ("coset-bound --m x", 2, "b65df4f00864fa935aee9b073b3bef9f740e48f42a12deb91a6facc370454ffe"),
    ],
)
def test_parser_output_keeps_its_bytes(capsys, monkeypatch, argv, code, digest):
    # sha256 of [exit code, stdout, stderr] at 80 columns, as printed when
    # every command's arguments were built on each run: the top-level help
    # and choices, each command's help, a missing required flag, a bad integer
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as raised:
        main(argv.split())
    out = capsys.readouterr()
    assert raised.value.code == code
    assert (out.out if code == 0 else out.err).startswith("usage: coloursym")
    assert hashlib.sha256(json.dumps([code, out.out, out.err]).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "branch, flag",
    [(branch, flag) for branch, argv in BRANCHES.items() for flag in optional_flags(argv[0])],
)
def test_each_branch_reads_or_refuses_each_optional_flag(tmp_path, capsys, monkeypatch, branch, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(random_graph(3, 2, 1).to_json())
    extra, honoured = FLAG_VALUES[flag]
    if (branch, flag) in UNREAD:
        def never(*args, **kwargs):
            raise AssertionError(f"work ran before {flag} was refused")

        for work in ("broken_schur_relation", "canonical_fpf_involution", "enumerate_cover"):
            monkeypatch.setattr(cli, work, never)
        code, out, err = run(capsys, *BRANCHES[branch], *extra, "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
        assert not Path("o.json").exists()
    else:
        code, out, err = run(capsys, *BRANCHES[branch], *extra, "--json")
        assert code in (0, 1) and err == ""
        assert honoured(json.loads(out))


def test_output_checks_leave_files_as_they_were(tmp_path, capsys):
    out = tmp_path / "o.json"
    code, text, _ = run(capsys, "supplement", "--m", "2", "--cover", "hat", "--out", str(out))
    assert code == 1 and "blocking involution" in text
    assert not out.exists()
    out.write_text("kept")
    code, _, err = run(capsys, "saturate", "--in", str(tmp_path / "absent.json"), "--k", "2", "--out", str(out))
    assert code == 2 and "absent.json" in err
    assert out.read_text() == "kept"


# -- coset-bound ---------------------------------------------------------------------


def test_coset_bound_sweep(capsys):
    code, doc = run_json(capsys, "coset-bound")
    assert code == 0
    names = {a["name"]: a for a in doc["assertions"]}
    assert names["bound-sweep"]["passed"]
    assert names["k1-fails"]["passed"]


def test_coset_bound_single(capsys):
    code, doc = run_json(capsys, "coset-bound", "--m", "3", "--k", "2")
    assert code == 0
    # a lone --m or --k used to run the sweep and ignore the value
    for argv in (["--m", "5"], ["--k", "3"]):
        code, out, err = run(capsys, "coset-bound", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: coset-bound takes --m and --k together, or neither\n"


# -- report determinism -----------------------------------------------------------------


def strip_time(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("wall_time_s")
    return doc


def test_reports_deterministic_modulo_wall_time(capsys):
    _, doc1 = run_json(capsys, "complement", "--m", "3", "--seed", "7")
    _, doc2 = run_json(capsys, "complement", "--m", "3", "--seed", "7")
    assert strip_time(doc1) == strip_time(doc2)
    _, doc3 = run_json(capsys, "complement", "--m", "3", "--seed", "8")
    assert strip_time(doc1) != strip_time(doc3)


def test_text_report_has_verdict_lines(capsys):
    code, out, _ = run(capsys, "complement", "--m", "3")
    assert code == 0
    assert "[PASS] all-elements-consistent" in out
    assert out.strip().endswith(")")
    assert "result: PASS" in out


# -- the benchmark tracer's patch points -------------------------------------------------


def test_every_name_the_tracer_patches_exists():
    # perfbench/tracing.py swaps each (owner, name) in `patches` through
    # owner.__dict__, so a renamed or dropped name breaks the traced runs
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    owners = {"cli": cli, "spin": spin, "equivariant": equivariant, "graphs": graphs,
              "ColouredGraph": ColouredGraph}
    patched = [
        (elt.elts[0].id, elt.elts[1].value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "patches"
        for elt in node.value.elts
    ]
    assert ("cli", "order") in patched and ("cli", "lift") in patched
    missing = [(owner, name) for owner, name in patched if name not in owners[owner].__dict__]
    assert missing == []


def test_every_name_the_tracer_reads_holds_its_value():
    # perfbench/tracing.py counts a product's blades as
    # len(coeffs) - coeffs.count(spin.SCALAR_ZERO), so SCALAR_ZERO must be
    # no entry of any coeffs; perfbench/worker.py and the tracer call
    # enumerate_cover's cache_info and cache_clear
    for kind in spin.CoverKind:
        for x in spin.enumerate_cover(3, kind).elements:
            assert spin.SCALAR_ZERO not in x.coeffs
            assert all(
                isinstance(entry, tuple) and len(entry) == 2 and all(type(v) is int for v in entry)
                for entry in x.coeffs
            )
    assert callable(spin.enumerate_cover.cache_info)
    assert callable(spin.enumerate_cover.cache_clear)
