"""Spans and profiler counts for the traced run.

Spans wrap every public function of cli, graphs, oracle and graph_io.
The wrapper replaces the function in every module of the package that
holds it, because cli, oracle and graph_io bind enumerate_graph,
edge_check and the scan entry points by name at import.  Each span
records its parent; self time is a span's duration minus its children's.

rational and group are too hot to wrap, so their call counts and self
time come from cProfile, which runs during the traced pass only.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import os
import pstats
import sys
import time
from collections import defaultdict

SPANNED = ("cli", "graphs", "oracle", "graph_io")


MEASURES = {
    # span name -> what to record from (args, result)
    "graphs.enumerate_graph": lambda a, r: (len(r.vertices), len(r.edges)),
    "graphs.edge_check": lambda a, r: (r is not None,),
    "oracle.enumerate_group": lambda a, r: (len(r.elements),),
    "oracle.orbital_pairs": lambda a, r: (len(r.pairs),),
    "graph_io.emit_json": lambda a, r: (len(r.encode()),),
    "graph_io.emit_dot": lambda a, r: (len(r.encode()),),
    "graph_io.emit_svg": lambda a, r: (len(r.encode()),),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, measure, raised, input]
        self.stack: list[int] = []
        self.profile = cProfile.Profile()

    def wrap(self, name: str, fn):
        spans, stack, measure = self.spans, self.stack, MEASURES.get(name)

        def spanned(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False, None]
            stack.append(len(spans))
            spans.append(span)
            if name == "graph_io.parse_json":  # recorded up front: parsing may raise
                span[6] = len(args[0].encode())
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result

        return spanned

    def install(self, mods: dict) -> None:
        package = [m for n, m in sys.modules.items() if n == "suborbital" or n.startswith("suborbital.")]
        for short in SPANNED:
            module = mods[short]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{fname}", fn)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)

    def _aggregate(self):
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        agg = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "raised": 0, "measures": []})
        for i, (name, start, end, _, measure, raised, size) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["incl"] += end - start
            a["self"] += end - start - child_time[i]
            a["raised"] += raised
            if measure is not None:
                a["measures"].append(measure)
            elif size is not None:
                a["measures"].append((size,))
        return agg

    def _profile_totals(self):
        """(calls, self seconds) per (module short name, function name)."""
        totals = defaultdict(lambda: [0, 0.0])
        per_module = defaultdict(float)
        for (filename, _, func), (_, ncalls, tottime, _, _) in pstats.Stats(self.profile).stats.items():
            parent = os.path.basename(os.path.dirname(filename))
            short = os.path.splitext(os.path.basename(filename))[0]
            if parent != "suborbital":
                continue
            totals[(short, func)][0] += ncalls
            totals[(short, func)][1] += tottime
            per_module[short] += tottime
        return totals, per_module

    def module_shares(self) -> dict:
        """Each module's share of the profiled self time; the rest is "other"."""
        _, per_module = self._profile_totals()
        total = sum(row[2] for row in pstats.Stats(self.profile).stats.values())
        shares = {name: t / total for name, t in sorted(per_module.items())}
        shares["other"] = 1.0 - sum(shares.values())
        return shares

    def layers(self, stdout_bytes: int) -> dict:
        agg = self._aggregate()
        totals, per_module = self._profile_totals()

        def calls(short, *funcs):
            return sum(totals[(short, f)][0] for f in funcs)

        def incl(*names):
            return sum(agg[n]["incl"] for n in names if n in agg)

        def count(name):
            return agg[name]["calls"] if name in agg else 0

        def msum(name, k=0):
            return sum(m[k] for m in agg[name]["measures"]) if name in agg else 0

        vertices = msum("graphs.enumerate_graph", 0)
        edges = msum("graphs.enumerate_graph", 1)
        accepted = edges + msum("graphs.edge_check", 0)
        tests = calls("graphs", "_congruences_hold")
        enumerate_s = incl("graphs.enumerate_graph")
        emits = ("graph_io.emit_json", "graph_io.emit_dot", "graph_io.emit_svg")
        parse = agg.get("graph_io.parse_json")
        return {
            "graphs.enumerate_s": (enumerate_s, "s"),
            "graphs.us_per_edge": (enumerate_s / edges * 1e6 if edges else 0.0, "us"),
            "graphs.congruence_tests": (tests, "count"),
            "graphs.accept_ratio": (accepted / tests if tests else 0.0, "edges/test"),
            "graphs.enumerate_calls": (count("graphs.enumerate_graph"), "count"),
            "graphs.vertices": (vertices, "count"),
            "graphs.edges": (edges, "count"),
            "graphs.edge_check_calls": (count("graphs.edge_check"), "count"),
            "rational.constructs": (calls("rational", "__init__", "__new__"), "count"),
            "rational.eq_hash_calls": (calls("rational", "__eq__", "__hash__"), "count"),
            "rational.self_s": (per_module["rational"], "s"),
            "group.matrices": (calls("group", "__init__", "__new__"), "count"),
            "group.contains_calls": (calls("group", "contains"), "count"),
            "group.apply_calls": (calls("group", "apply"), "count"),
            "group.self_s": (per_module["group"], "s"),
            "oracle.scan_calls": (count("oracle.enumerate_group"), "count"),
            "oracle.members": (msum("oracle.enumerate_group"), "count"),
            "oracle.scan_s": (incl("oracle.enumerate_group"), "s"),
            "oracle.replay_s": (incl("oracle.orbital_pairs"), "s"),
            "oracle.compare_self_s": (agg["oracle.compare_edges_vs_orbital"]["self"]
                                      if "oracle.compare_edges_vs_orbital" in agg else 0.0, "s"),
            "oracle.orbital_pairs": (msum("oracle.orbital_pairs"), "count"),
            "oracle.selfpaired_s": (incl("oracle.verify_self_paired"), "s"),
            "oracle.lattice_s": (incl("oracle.verify_lattice_identity"), "s"),
            "oracle.blocks_s": (incl("oracle.count_blocks"), "s"),
            "graph_io.emit_s": (incl(*emits), "s"),
            "graph_io.emit_bytes": (sum(msum(n) for n in emits), "B"),
            "graph_io.parse_s": (parse["incl"] if parse else 0.0, "s"),
            "graph_io.parse_self_s": (parse["self"] if parse else 0.0, "s"),
            "graph_io.parse_bytes": (msum("graph_io.parse_json"), "B"),
            "graph_io.rejects": (parse["raised"] if parse else 0, "count"),
            "cli.self_s": (sum(a["self"] for n, a in agg.items() if n.startswith("cli.")), "s"),
            "cli.calls": (count("cli.main"), "count"),
            "cli.stdout_bytes": (stdout_bytes, "B"),
        }

    def write(self, path: str) -> None:
        """All spans, one JSON object per line, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, measure, raised, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": round(start - t0, 9), "end": round(end - t0, 9),
                                     "raised": raised}) + "\n")
