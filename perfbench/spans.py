"""Span recording around the calls into each qnetcap module.

:class:`Tracer` wraps every public function of the package in each module
namespace that holds a reference to it, so calls made through
``cli.widest_path``, ``single_path.make_cut`` or ``qnetcap.capacity`` all
land in a span.  Spans (name, start, end, parent) are kept in flat arrays in
memory and written out once, at the end of the run.  Nothing under ``src/``
is changed; only the module attributes of the running process are.

:func:`layer_stats` turns a span dump into per-layer self times: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter

MODULES = ("cli", "network", "channels", "chains", "single_path", "multi_path", "oracle")

#: Functions reported together under one layer name.  ``cli.main`` stands
#: for the CLI's own work: argument parsing, printing and CSV writing.
GROUPS = {
    "cli.build_parser": "cli.main",
    "cli.cmd_channel": "cli.main",
    "cli.cmd_chain": "cli.main",
    "cli.cmd_network": "cli.main",
    "cli.cmd_sweep": "cli.main",
    "cli.cmd_compare_multiband": "cli.main",
    "cli.format_bits": "cli.main",
    "channels.lossy": "channels.spec",
    "channels.amplifier": "channels.spec",
    "channels.dephasing": "channels.spec",
    "channels.erasure": "channels.spec",
    "channels.multiband_lossy": "channels.spec",
    "network.cut_single_edge_value": "network.cut_value",
    "network.cut_multi_edge_value": "network.cut_value",
    "network.edge_capacity": "network.cut_value",
    "oracle.brute_single_path_capacity": "oracle.brute",
    "oracle.brute_multi_path_capacity": "oracle.brute",
}


def _count_make_cut(counters, args, result):
    counters["network.make_cut.side_a_points"] += len(result.side_a)


def _count_widest(counters, args, result):
    counters["single_path.dual_cut_side_a"] += len(result.dual_cut.side_a)
    counters["single_path.points"] += len(args[0].points)


def _count_flow(counters, args, result):
    rates = result.effective_rates.values()
    counters["multi_path.flow_edges"] += sum(1 for r in rates if r != 0.0)
    counters["multi_path.edges"] += len(rates)


def _count_cuts(counters, args, result):
    counters["oracle.cuts"] += len(result.cuts)


def _count_routes(counters, args, result):
    counters["oracle.routes"] += len(result)


#: Counters read off a call's arguments and result, keyed by function.
COUNTERS = {
    "network.make_cut": _count_make_cut,
    "single_path.widest_path": _count_widest,
    "multi_path.max_flow": _count_flow,
    "oracle.enumerate_cuts": _count_cuts,
    "oracle.enumerate_simple_routes": _count_routes,
}


class Tracer:
    """Flat in-memory span store; ``parent`` is -1 for a root span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def reset(self):
        """Forget every span and counter; installed wrappers keep working."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self._stack[1:] = []
        self.counters.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        begin, finish, counters = self.begin, self.finish, self.counters

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, package):
        """Replace every public package function, wherever it is referenced."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrappers = {}
        for module in modules[1:]:
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    short = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
                    wrappers[fn] = self.wrap(GROUPS.get(short, short), fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def dump(self, path: str):
        """Write the spans out: a JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "counters": self.counters}) + "\n")
            for row in zip(self.name, self.parent, self.start, self.end):
                handle.write("%d %d %r %r\n" % row)


def load(path: str):
    """Inverse of :meth:`Tracer.dump`: (names, counters, span rows)."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        rows = []
        for line in handle:
            name, parent, start, end = line.split()
            rows.append((int(name), int(parent), float(start), float(end)))
    return header["names"], header["counters"], rows


def layer_stats(names, rows):
    """Per-name self time and call count, plus per-root totals.

    Returns ``(self_s, calls, roots)`` where ``roots`` lists, for each root
    span, its name, duration and the sum of the self times in its subtree.
    """
    child_time = [0.0] * len(rows)
    for name, parent, start, end in rows:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {n: 0.0 for n in names}
    calls = {n: 0 for n in names}
    root_of = [0] * len(rows)
    subtree_self: dict[int, float] = {}
    for i, (name, parent, start, end) in enumerate(rows):
        own = end - start - child_time[i]
        self_s[names[name]] += own
        calls[names[name]] += 1
        root_of[i] = i if parent < 0 else root_of[parent]
        subtree_self[root_of[i]] = subtree_self.get(root_of[i], 0.0) + own
    roots = [
        (names[rows[i][0]], rows[i][3] - rows[i][2], total)
        for i, total in subtree_self.items()
    ]
    return self_s, calls, roots
