import dataclasses
import hashlib
import json
import time

import pytest

from coloursym import cli, equivariant
from coloursym.cli import main
from coloursym.graphs import ColouredGraph, random_graph


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
    code, out, _ = run(capsys, "gen-random", "--n", "6", "--m", "3", "--seed", "5",
                       "--out", str(path))
    assert code == 0
    assert "graph-written" in out
    G = ColouredGraph.from_json(path.read_text())
    assert G == random_graph(6, 3, 5)


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
    doc = json.loads(path.read_text())
    assert doc["graph"]["n"] == 12
    assert len(doc["vertex_labels"]) == 12


@pytest.mark.parametrize("m", ["8", "9"])
def test_complement_above_the_sym_cap_is_a_one_line_error(capsys, m):
    code, out, err = run(capsys, "complement", "--m", m)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("cover", ["tilde", "hat"])
def test_supplement_odd_m_above_enumeration_passes_vacuously(capsys, cover):
    code, doc = run_json(capsys, "supplement", "--m", "7", "--cover", cover)
    assert code == 0
    assert [a["name"] for a in doc["assertions"]] == ["supplement-condition"]
    detail = doc["assertions"][0]["detail"]
    assert "odd" in detail and "not run" in detail


def test_supplement_beyond_the_direct_lift_limit_is_a_one_line_error(capsys):
    # m is checked before any algebra element is built
    code, out, err = run(capsys, "supplement", "--m", "26", "--cover", "tilde")
    assert code == 2
    assert out == ""
    assert err == "error: m must be in 1..12\n"


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
    src = tmp_path / "huge.json"
    src.write_text('{"m": 3, "n": 2000000, "colours": []}')
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
        ["supplement", "--m", "4", "--cover", "hat", "--orbits", "50000"],
        ["complement", "--m", "3", "--orbits", "100000"],
        ["coset-bound", "--m", "100000000", "--k", "100000000"],
    ],
    ids=lambda argv: argv[0],
)
def test_sizes_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # each would allocate gigabytes or run for hours if its size went unchecked
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "limit" in err


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
