"""The benchmark's workloads and the oracles that judge each check.

A check is one `coloursym` command line, run through `coloursym.cli.main`.
Every workload repeats one command at one size; its checks differ only by
seed and, where the two kinds cost alike, by cover kind. The oracles below
are written apart from the program: they build the double cover with their
own exact Clifford arithmetic, state the order rule themselves and sweep
witness queries with their own vectorised code. None of them compares
against stored output.

Only `plan` imports coloursym (for the seeded witness inputs), so the
oracles can be tested on hand-made output.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

KINDS = ("tilde", "hat")
ROUND = 2  # checks per round: one per cover kind, or two seeds on `witness`
SEED_POOL = 32  # distinct check seeds per run; longer runs cycle through them

ORBIT_M = 5
ORBIT_ORBITS = 2
ORBIT_COVER_SIZE = 2 * math.factorial(ORBIT_M)
COVER_M = 12
WITNESS_N = 3
WITNESS_M = 3
WITNESS_K = 2


class OracleError(Exception):
    """A check's output contradicts what the oracle computed."""


@dataclass(frozen=True)
class Check:
    """One command line and what its oracle needs to judge it."""

    workload: str
    argv: tuple[str, ...]
    kind: Optional[str] = None
    infile: Optional[Path] = None
    outfile: Optional[Path] = None


def check_seeds(workload: str, seed: int) -> list[int]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(SEED_POOL)]


def plan(workload: str, seed: int, workdir: Path) -> list[Check]:
    """The run's cycle of checks. Writes the seeded input files it needs."""
    seeds = check_seeds(workload, seed)
    if workload == "orbit":
        out = workdir / "orbit-graph.json"
        return [
            Check(
                workload,
                (
                    "supplement", "--m", str(ORBIT_M), "--orbits", str(ORBIT_ORBITS),
                    "--cover", KINDS[i % 2], "--seed", str(s), "--out", str(out),
                    "--json",
                ),
                kind=KINDS[i % 2],
                outfile=out,
            )
            for i, s in enumerate(seeds)
        ]
    if workload == "cover":
        return [
            Check(
                workload,
                ("cover-table", "--m", str(COVER_M), "--direct",
                 "--cover", KINDS[i % 2], "--json"),
                kind=KINDS[i % 2],
            )
            for i, s in enumerate(seeds)
        ]
    if workload == "witness":
        from coloursym.graphs import random_graph

        out = workdir / "saturated.json"
        checks = []
        for i, s in enumerate(seeds):
            infile = workdir / f"input-{i:02d}.json"
            infile.write_text(random_graph(WITNESS_N, WITNESS_M, s).to_json(), encoding="utf-8")
            checks.append(
                Check(
                    workload,
                    ("saturate", "--in", str(infile), "--k", str(WITNESS_K),
                     "--seed", str(s), "--out", str(out), "--json"),
                        infile=infile,
                    outfile=out,
                )
            )
        return checks
    raise ValueError(f"unknown workload {workload!r}")


def judge(check: Check, exit_code: int, stdout: str) -> None:
    """Raise OracleError unless the check's report and files are right."""
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise OracleError(f"no JSON report on stdout (exit code {exit_code})") from exc
    failed = sorted(a["name"] for a in report["assertions"] if not a["passed"])
    # A correct negative verdict is not a failure: saturate may stop at its
    # round budget before a sweep that adds nothing, and then says so.
    negative = check.workload == "witness" and failed == ["achieved"]
    if exit_code != (1 if negative else 0) or (failed and not negative):
        raise OracleError(f"exit code {exit_code}, failed assertions {failed}")
    if check.workload == "orbit":
        judge_orbit(report, check.outfile, ORBIT_M, ORBIT_ORBITS, check.kind)
    elif check.workload == "cover":
        judge_cover(report, COVER_M, check.kind)
    else:
        judge_witness(report, check.infile, check.outfile, WITNESS_K)


def _assertions(report: dict) -> dict[str, dict]:
    return {a["name"]: a for a in report["assertions"]}


# -- the order rule ---------------------------------------------------------


def expected_lift_order(r: int, kind: str) -> int:
    """The paper's rule for a product of r disjoint transpositions: its lifts
    have order 4 when r = 1, 2 (mod 4) in the tilde cover or r = 2, 3 (mod 4)
    in the hat cover, and order 2 otherwise."""
    residues = {"tilde": (1, 2), "hat": (2, 3)}[kind]
    return 4 if r % 4 in residues else 2


def supplement_expected(m: int, kind: str) -> bool:
    """Odd m has no fixed-point-free colour involution, so the condition
    holds vacuously; for even m every such involution is a product of m/2
    disjoint transpositions, and the cover passes iff their lifts have
    order 4."""
    return m % 2 == 1 or expected_lift_order(m // 2, kind) == 4


_OBSERVED = re.compile(r"observed \[([0-9, ]*)\]")


def judge_cover(report: dict, m: int, kind: str) -> None:
    rows = {
        name: a for name, a in _assertions(report).items() if name.startswith("order-rule-r")
    }
    wanted = {f"order-rule-r{r}" for r in range(1, m // 2 + 1)}
    if set(rows) != wanted:
        raise OracleError(f"order rows {sorted(rows)}, expected {sorted(wanted)}")
    for r in range(1, m // 2 + 1):
        found = _OBSERVED.search(rows[f"order-rule-r{r}"]["detail"])
        if found is None:
            raise OracleError(f"row r={r} names no observed orders")
        observed = [int(x) for x in found.group(1).split(",") if x.strip()]
        if observed != [expected_lift_order(r, kind)]:
            raise OracleError(
                f"r={r} {kind}: observed orders {observed}, "
                f"the rule gives {expected_lift_order(r, kind)}"
            )


# -- the double cover, built apart from coloursym ---------------------------


@dataclass(frozen=True)
class Cover:
    """Right multiplication by the generators on the cover's labels.

    Labels follow the closure order that `enumerate_cover` documents:
    identity first, then each element's right products with the Coxeter
    lifts (e_i - e_{i+1})/sqrt2, i = 1..m-1, and -1, in discovery order.
    right[g][x] is the label of x * generator g; colour[g] is g's colour
    permutation as 0-based images (the last generator, -1, acts trivially).
    """

    right: np.ndarray
    colour: np.ndarray
    neg_unit: int

    @property
    def size(self) -> int:
        return self.right.shape[1]


def _blade_signs(m: int, kind: str) -> np.ndarray:
    """sign[A, B] with e_A e_B = sign * e_(A xor B): one factor -1 for every
    pair a in A, b in B with a > b, and the square sign for every shared
    generator."""
    blades = np.arange(1 << m)
    bits = (blades[:, None] >> np.arange(m)) & 1
    later = np.tril(np.ones((m, m), dtype=np.int64), -1)  # later[i, j] = i > j
    swaps = bits @ later @ bits.T
    shared = bits @ bits.T
    square = -1 if kind == "tilde" else 1
    return np.where(swaps % 2, -1, 1) * np.where(shared % 2, square, 1)


@functools.lru_cache(maxsize=None)
def build_cover(m: int, kind: str) -> Cover:
    """Enumerate the cover exactly. An element is (k, n): the blade vector
    n * (sqrt 2)^(-k) with integer n, halved while every entry is even.
    Memoised here, in the oracle; coloursym's own cover cache is cleared
    before every check."""
    size = 1 << m
    signs = _blade_signs(m, kind)
    xor = np.bitwise_xor.outer(np.arange(size), np.arange(size)).ravel()

    def normal(k: int, n: np.ndarray) -> tuple[int, np.ndarray]:
        while k >= 2 and not (n % 2).any():
            n, k = n // 2, k - 2
        return k, n

    def mul(x: tuple[int, np.ndarray], y: tuple[int, np.ndarray]):
        terms = (np.outer(x[1], y[1]) * signs).ravel()
        n = np.bincount(xor, weights=terms, minlength=size)
        return normal(x[0] + y[0], np.rint(n).astype(np.int64))

    gens = []
    for i in range(m - 1):
        n = np.zeros(size, dtype=np.int64)
        n[1 << i], n[1 << (i + 1)] = 1, -1
        gens.append((1, n))
    minus = np.zeros(size, dtype=np.int64)
    minus[0] = -1
    gens.append((0, minus))
    one = np.zeros(size, dtype=np.int64)
    one[0] = 1

    def key(x):
        return x[0], x[1].tobytes()

    elements = [(0, one)]
    labels = {key(elements[0]): 0}
    right: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(elements):
        for g, gen in enumerate(gens):
            y = mul(elements[i], gen)
            label = labels.setdefault(key(y), len(elements))
            if label == len(elements):
                elements.append(y)
            right[g].append(label)
        i += 1
    if len(elements) != 2 * math.factorial(m):
        raise OracleError(f"cover closure has {len(elements)} elements")
    colour = np.tile(np.arange(m), (len(gens), 1))
    for i in range(m - 1):
        colour[i, [i, i + 1]] = colour[i, [i + 1, i]]
    return Cover(
        right=np.asarray(right),
        colour=colour,
        neg_unit=labels[key((0, minus))],
    )


def read_graph(data: object) -> np.ndarray:
    """Colour matrix of a graph-JSON object, checking that every pair of
    distinct vertices appears once with a colour in 1..m."""
    if not isinstance(data, dict) or not {"m", "n", "colours"} <= set(data):
        raise OracleError("graph JSON lacks m, n or colours")
    m, n = data["m"], data["n"]
    entries = np.asarray(data["colours"], dtype=np.int64).reshape(-1, 3)
    if len(entries) != n * (n - 1) // 2:
        raise OracleError(f"{len(entries)} pairs listed for {n} vertices")
    u, v, c = entries.T
    if (u < 0).any() or (v >= n).any() or (u >= v).any():
        raise OracleError("a pair is out of range or not listed as u < v")
    if c.min(initial=1) < 1 or c.max(initial=m) > m:
        raise OracleError(f"a colour lies outside 1..{m}")
    C = np.zeros((n, n), dtype=np.int64)
    C[u, v] = c
    if np.count_nonzero(C) != len(entries):
        raise OracleError("a pair is listed twice")
    return C + C.T


def judge_orbit(report: dict, outfile: Path, m: int, orbits: int, kind: str) -> None:
    checks = _assertions(report)
    condition = checks.get("supplement-condition")
    if condition is None or condition["passed"] != supplement_expected(m, kind):
        raise OracleError(f"supplement condition for m={m} {kind} disagrees with the rule")
    cover = build_cover(m, kind)
    if cover.size != 2 * math.factorial(m):
        raise OracleError(f"|cover| = {cover.size}, expected 2 * {m}!")
    kernel = checks.get("kernel-is-centre", {}).get("detail", "")
    if f"K = [0, {cover.neg_unit}]" not in kernel or not checks.get("kernel-order-two", {}).get("passed"):
        raise OracleError(f"kernel {kernel!r} is not {{+1, -1}} = [0, {cover.neg_unit}]")
    written = json.loads(outfile.read_text(encoding="utf-8"))
    C = read_graph(written["graph"])
    n = orbits * cover.size
    if C.shape != (n, n) or written["graph"]["m"] != m:
        raise OracleError(f"graph has {C.shape[0]} vertices, expected {orbits} x {cover.size}")
    labels = written["vertex_labels"]
    if labels != [{"orbit": v // cover.size, "element": v % cover.size} for v in range(n)]:
        raise OracleError("vertex labels do not enumerate orbit x element")
    offsets = (np.arange(orbits) * cover.size)[:, None]
    for g in range(len(cover.right)):
        s = (offsets + cover.right[g][None, :]).ravel()
        table = np.concatenate(([0], cover.colour[g] + 1))
        if not np.array_equal(C[np.ix_(s, s)], table[C]):
            raise OracleError(f"generator {g} of the {kind} cover does not permute colours")


# -- witnesses ---------------------------------------------------------------


def unsatisfied_queries(C: np.ndarray, m: int, k: int) -> int:
    """Count queries of total size <= k with no witness. For each vertex
    subset U the outside vertices' colours to U, read as a base-m code,
    are the satisfied queries on U; the missing codes are the rest."""
    n = C.shape[0]
    missing = 0 if n > 0 else 1  # the empty query needs any vertex
    if k >= 1:
        for u in range(n):
            present = np.zeros(m, dtype=bool)
            present[C[np.arange(n) != u, u] - 1] = True
            missing += m - int(present.sum())
    if k >= 2:
        for u in range(n):
            codes = (C[:, u, None] - 1) * m + (C - 1)  # [w, v]
            outside = np.ones((n, n), dtype=bool)
            outside[u, :] = False
            np.fill_diagonal(outside, False)
            w, v = np.nonzero(outside[:, u + 1 :])
            present = np.zeros((n - u - 1, m * m), dtype=bool)
            present[v, codes[w, v + u + 1]] = True
            missing += int((~present).sum())
    if k >= 3:
        raise ValueError("the sweep covers queries of size at most 2")
    return missing


_UNSATISFIED = re.compile(r": (\d+) unsatisfied")


def judge_witness(report: dict, infile: Path, outfile: Path, k: int) -> None:
    checks = _assertions(report)
    given_json = json.loads(infile.read_text(encoding="utf-8"))
    given = read_graph(given_json)
    grown_json = json.loads(outfile.read_text(encoding="utf-8"))
    grown = read_graph(grown_json)
    if grown_json["m"] != given_json["m"]:
        raise OracleError(f"palette changed to {grown_json['m']}")
    h = given.shape[0]
    if grown.shape[0] < h or not np.array_equal(grown[:h, :h], given):
        raise OracleError("the output graph does not keep the input on its first vertices")
    if not checks["achieved"]["passed"]:
        if "witness-sweep" in checks:
            raise OracleError("an unfinished saturation reports a witness sweep")
        return
    missing = unsatisfied_queries(grown, grown_json["m"], k)
    sweep = _UNSATISFIED.search(checks.get("witness-sweep", {}).get("detail", ""))
    if sweep is None or int(sweep.group(1)) != missing or missing != 0:
        shown = sweep.group(1) if sweep else "nothing"
        raise OracleError(f"oracle sweep finds {missing} unsatisfied queries, report says {shown}")
