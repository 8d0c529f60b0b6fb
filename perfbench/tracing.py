"""Spans and counts around the calls into coloursym's layers.

The tracer wraps public functions at the names through which the layer
above calls them (for example `coloursym.cli.enumerate_cover`, or
`coloursym.spin.pin_mul` for the calls inside `spin`), records one span per
call in memory, and restores every name when it is uninstalled. Nothing in
`src/` is edited. A span's self time is its duration minus the time its
wrapped children cover, so the self times of one check add up to the
check's wall time.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, Optional

# Per-check figures the traced run reports, in the order BENCHMARK.json lists
# them. Names ending in `_s` are self times in seconds; the rest are counts.
LAYER_METRICS = (
    "cli.main.self_s",
    "spin.enumerate_cover_s",
    "spin.enumerate_cover.elements",
    "spin.blocking_involutions_s",
    "spin.order_rule_table_s",
    "spin.order_s",
    "spin.order.calls",
    "spin.lift_s",
    "spin.pin_mul_s",
    "spin.pin_mul.calls",
    "spin.pin_mul.blade_products",
    "equivariant.verify_colour_group_s",
    "equivariant.verify_colour_group.elements_checked",
    "equivariant.assemble_orbit_graph_s",
    "equivariant.assemble_orbit_graph.calls",
    "equivariant.action_vertex_perm_s",
    "equivariant.action_vertex_perm.calls",
    "equivariant.build_pair_colouring_s",
    "graphs.is_colour_consistent_s",
    "graphs.is_colour_consistent.calls",
    "graphs.is_colour_consistent.pairs",
    "graphs.saturate_s",
    "graphs.saturate.queries",
    "graphs.saturate.vertices_added",
    "graphs.find_witness_s",
    "graphs.find_witness.calls",
    "graphs.from_json_s",
    "graphs.to_json_dict_s",
)
OVERHEAD_METRIC = "trace.overhead_pct"

Count = Callable[[Counter, tuple, object], None]


class Tracer:
    """Spans (name, start, end, parent span, check id) kept in columns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.check = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, Counter] = {}
        self.current_check = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Count] = None) -> Callable:
        """fn with a span per call; `count` adds work counts after the call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        calls = name + ".calls"

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(name_id)
            self.check.append(self.current_check)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.start[span] = start
                self.end[span] = end
            counts = self.counts.setdefault(self.current_check, Counter())
            counts[calls] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the layer boundaries for the duration of the block."""
        from coloursym import cli, equivariant, graphs, spin
        from coloursym.graphs import ColouredGraph

        cache_info = spin.enumerate_cover.cache_info
        last_hits = [cache_info().hits]

        def cover_elements(counts: Counter, args: tuple, result) -> None:
            # Counted only when the call missed coloursym's cache, so a
            # reused cover shows as 0.
            hits = cache_info().hits
            if hits <= last_hits[0]:
                counts["spin.enumerate_cover.elements"] += len(result.elements)
            last_hits[0] = hits

        def blade_products(counts: Counter, args: tuple, result) -> None:
            a, b = args[:2]
            zero = spin.SCALAR_ZERO
            counts["spin.pin_mul.blade_products"] += (
                (len(a.coeffs) - a.coeffs.count(zero)) * (len(b.coeffs) - b.coeffs.count(zero))
            )

        def elements_checked(counts: Counter, args: tuple, result) -> None:
            counts["equivariant.verify_colour_group.elements_checked"] += len(result.checked)

        def pairs(counts: Counter, args: tuple, result) -> None:
            n = args[0].n
            counts["graphs.is_colour_consistent.pairs"] += n * (n - 1) // 2

        def vertices_added(counts: Counter, args: tuple, result) -> None:
            counts["graphs.saturate.vertices_added"] += result[0].n - args[0].n

        witness_queries = graphs.witness_queries

        def counted_queries(*args, **kwargs):
            # Counts the queries saturate's sweeps draw; no span per query.
            counts = self.counts.setdefault(self.current_check, Counter())
            for q in witness_queries(*args, **kwargs):
                counts["graphs.saturate.queries"] += 1
                yield q

        patches = [
            (cli, "enumerate_cover", self.wrap("spin.enumerate_cover", cli.enumerate_cover, cover_elements)),
            (cli, "blocking_involutions", self.wrap("spin.blocking_involutions", cli.blocking_involutions)),
            (cli, "order_rule_table", self.wrap("spin.order_rule_table", cli.order_rule_table)),
            (cli, "order", self.wrap("spin.order", cli.order)),
            (spin, "order", self.wrap("spin.order", spin.order)),
            (cli, "lift", self.wrap("spin.lift", cli.lift)),
            (spin, "lift", self.wrap("spin.lift", spin.lift)),
            (spin, "pin_mul", self.wrap("spin.pin_mul", spin.pin_mul, blade_products)),
            (cli, "verify_colour_group", self.wrap("equivariant.verify_colour_group", cli.verify_colour_group, elements_checked)),
            (equivariant, "assemble_orbit_graph", self.wrap("equivariant.assemble_orbit_graph", equivariant.assemble_orbit_graph)),
            (equivariant, "action_vertex_perm", self.wrap("equivariant.action_vertex_perm", equivariant.action_vertex_perm)),
            (cli, "build_pair_colouring", self.wrap("equivariant.build_pair_colouring", cli.build_pair_colouring)),
            (equivariant, "is_colour_consistent", self.wrap("graphs.is_colour_consistent", equivariant.is_colour_consistent, pairs)),
            (cli, "saturate", self.wrap("graphs.saturate", cli.saturate, vertices_added)),
            (graphs, "witness_queries", counted_queries),
            (cli, "find_witness", self.wrap("graphs.find_witness", cli.find_witness)),
            (ColouredGraph, "from_json", classmethod(self.wrap("graphs.from_json", ColouredGraph.from_json.__func__))),
            (ColouredGraph, "to_json_dict", self.wrap("graphs.to_json_dict", ColouredGraph.to_json_dict)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[int, Counter]:
        """Per check, the self time of every span name, summed."""
        child_time = [0.0] * len(self.start)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[span] - self.start[span]
        out: dict[int, Counter] = {}
        for span, name_id in enumerate(self.name):
            own = self.end[span] - self.start[span] - child_time[span]
            out.setdefault(self.check[span], Counter())[self.names[name_id]] += own
        return out

    def layer_metrics(self, checks: list[int]) -> dict[str, float]:
        """Median over the given checks of each per-check layer figure."""
        times = self.self_times()
        per_check = []
        for c in checks:
            figures = Counter(self.counts.get(c, Counter()))
            for name, seconds in times.get(c, Counter()).items():
                figures[("cli.main.self" if name == "cli.main" else name) + "_s"] = seconds
            per_check.append(figures)
        return {
            metric: float(statistics.median(f[metric] for f in per_check))
            for metric in LAYER_METRICS
        }

    def dump(self, path: Path) -> None:
        """Write every span, as columns, to a gzip-compressed JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": list(self.name),
                    "check": list(self.check),
                    "parent": list(self.parent),
                    "start": list(self.start),
                    "end": list(self.end),
                    "counts": {str(c): dict(v) for c, v in self.counts.items()},
                },
                fh,
            )
