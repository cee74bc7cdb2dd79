"""qnetcap benchmark: one workload per run, every answer verified.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fiber-mesh --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from the seed by ``workloads.py``):

* ``fiber-mesh``    network single/multi through ``cli.main`` and the
                    Kruskal + tree-route library pair on ~2e4-edge networks;
* ``small-referee`` every solver and the brute-force oracle on a few hundred
                    8-12 point networks;
* ``loss-sweep``    the ``sweep`` and ``compare-multiband`` CSV commands.

The ops run in a separate single-threaded worker process (``worker.py``)
that imports ``qnetcap`` from ``src/`` and calls it as one caller in a
closed loop: whole rounds, each over the next of the seed's input sets,
until ``--seconds`` have passed.  Set-up time is the median over several
fresh interpreters importing ``qnetcap.cli``.  Times are scaled to a
reference host speed with calibration samples taken next to them
(``hostspeed.py``).  After the worker exits, ``verify.py`` checks every
answer with the benchmark's own code.

``--trace 1`` instead runs the first round once untraced, once traced and
once traced on inputs a tenth the size, and reports per-layer self times,
counts and log-log slopes of self time against input size.

The last line of stdout is one JSON object; the lines before it list every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 16
#: Calibration samples on each side of an op that set its local host speed.
CALIBRATION_WINDOW = 10
WORKER_TIMEOUT_S = 170
#: Percentiles tried for the tail, highest first; the first one with at
#: least ten samples beyond it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Layers whose self time, and its slope against input size, is reported.
SELF_LAYERS = (
    "network.parse_network",
    "channels.spec",
    "network.make_cut",
    "network.cut_value",
    "single_path.widest_path",
    "single_path.max_spanning_tree",
    "single_path.tree_route_capacity",
    "multi_path.max_flow",
    "multi_path.build_flow_network",
    "channels.capacity",
    "chains.equidistant_lossy_capacity",
    "cli.main",
    "cli.sweep_rows",
    "cli.compare_rows",
    "oracle.enumerate_cuts",
    "oracle.enumerate_simple_routes",
    "oracle.brute",
)
CALL_LAYERS = ("channels.spec", "network.make_cut", "channels.capacity", "chains.equidistant_lossy_capacity")
CLI_KINDS = ("single", "multi", "sweep", "compare")


# --- workloads -----------------------------------------------------------------
# Each function below returns the ops of one input set.  An op carries what the
# worker needs to run it, the work units it answers (edges, referee
# networks or CSV rows) and the group its latency is summarised in.


def fiber_mesh_ops(seed: int, work: Path, scale: str, index: int):
    ops = []
    for label, doc in workloads.mesh_networks(seed, scale, index):
        key = f"{scale}{index}-{label}"
        path = work / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        edges = len(doc["edges"])
        for kind in ("single", "multi", "kruskal"):
            ops.append(
                {"kind": kind, "file": str(path), "net": key, "group": f"{label}-{kind}", "edges": edges, "units": edges}
            )
    return ops


def small_referee_ops(seed: int, work: Path, scale: str, index: int):
    return [
        {
            "kind": "referee",
            "doc": json.dumps(doc),
            "net": f"{scale}{index}-{i}",
            "group": "referee",
            "edges": len(doc["edges"]),
            "units": 1,
        }
        for i, doc in enumerate(workloads.referee_networks(seed, scale, index))
    ]


def loss_sweep_ops(seed: int, work: Path, scale: str, index: int):
    ops = []
    for kind, argv in workloads.sweep_commands(scale):
        start, stop, step = (float(argv[argv.index(flag) + 1]) for flag in ("--start", "--stop", "--step"))
        rows = int((stop - start) / step + 1e-9) + 1
        ops.append({"kind": kind, "argv": argv, "out": str(work / f"{scale}-{kind}.csv"), "group": kind, "units": rows})
    return ops


WORKLOADS = {
    "fiber-mesh": fiber_mesh_ops,
    "small-referee": small_referee_ops,
    "loss-sweep": loss_sweep_ops,
}


# --- verification --------------------------------------------------------------


class Verifier:
    """Checks each distinct (op, answer) pair once, with ``verify.py``."""

    def __init__(self):
        self.graph_key, self.graph = None, None
        self.verdicts: dict[tuple[int, int], list[str]] = {}  # by (id(op), answer id)

    def _graph(self, op: dict) -> tuple[verify.Graph, float]:
        """Graph and reference widest-path value; one network is kept."""
        if self.graph_key != op["net"]:
            if "file" in op:
                doc = json.loads(Path(op["file"]).read_text(encoding="utf-8"))
            else:
                doc = json.loads(op["doc"])
            graph = verify.Graph(doc)
            self.graph_key, self.graph = op["net"], (graph, graph.widest_value())
        return self.graph

    def problems(self, op: dict, out_id: int, text: str) -> list[str]:
        key = (id(op), out_id)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self._check(op, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.verdicts[key] = [f"unreadable answer: {exc!r}"]
        return self.verdicts[key]

    def _check(self, op: dict, text: str) -> list[str]:
        kind = op["kind"]
        if kind in ("sweep", "compare"):
            return verify.check_csv(op["argv"], text)
        g, ref = self._graph(op)
        if kind == "single":
            return verify.check_route(g, verify.parse_single(text), ref)
        if kind == "multi":
            return verify.check_flow(g, verify.parse_multi(text), ref)
        if kind == "kruskal":
            return verify.check_route(g, json.loads(text), ref)
        ans = json.loads(text)
        problems = verify.check_route(g, ans["widest"], ref)
        problems += verify.check_route(g, ans["tree"], ref)
        problems += verify.check_flow(g, ans["flow"], ref, rounded=False)
        value, flow = ans["widest"]["capacity"], ans["flow"]["value"]
        for label, got, want in (
            ("single-edge cut value", ans["single_cut_value"], value),
            ("brute-force route value", ans["brute_route_value"], value),
            ("brute-force cut value", ans["brute_cut_value"], value),
            ("multi-edge cut value", ans["multi_cut_value"], flow),
            ("brute-force multi-path value", ans["brute_multi"], flow),
        ):
            if not verify.close(got, want):
                problems.append(f"{label} {got!r} differs from {want!r}")
        return problems


def check_records(records, rounds, outputs, verifier):
    """[(op, seconds, ok)] and the wrong answers; an op that raised, exited
    non-zero or answered wrongly is not ok."""
    checked, wrong = [], []
    for round_index, op_index, seconds, status, out_id, _ in records:
        op = rounds[round_index][op_index]
        ok = status == "ok"
        if ok:
            problems = verifier.problems(op, out_id, outputs[out_id])
            if problems:
                ok = False
                wrong.append(f"{op['kind']} {op.get('net', '')}: {problems[0]}")
        checked.append((op, seconds, ok))
    return checked, wrong


# --- measurement ---------------------------------------------------------------


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(root: Path) -> float:
    """Median wall time of SETUP_SAMPLES fresh interpreters importing
    ``qnetcap.cli``, at reference host speed (a calibration sample is taken
    before each)."""
    env = worker_env(root)
    samples, calibration = [], []
    for _ in range(SETUP_SAMPLES):
        calibration.append(hostspeed.calibrate())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qnetcap.cli"], env=env, cwd=root, check=True)
        samples.append(time.perf_counter() - t0)
    return hostspeed.to_reference(statistics.median(samples), calibration)


def run_worker(root: Path, work: Path, job: dict) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env=worker_env(root),
        cwd=root,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(values):
    """(value, percentile, n): the highest TAIL_PERCENTILES entry with at
    least ten samples beyond it, by nearest rank; the maximum if none has.
    A fixed list keeps the percentile the same when n moves by a round."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n
    return ordered[-1], 100.0, n


def _rate(checked, kinds) -> float:
    """Work units of answered ops per second of all attempts of those kinds."""
    done = sum(op["units"] for op, _, ok in checked if ok and op["kind"] in kinds)
    spent = sum(seconds for op, seconds, _ in checked if op["kind"] in kinds)
    return done / spent


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def calibration_windows(records, calibration):
    """Per record, the calibration samples taken around its op: the last
    CALIBRATION_WINDOW before it and the first CALIBRATION_WINDOW after."""
    return [
        calibration[max(0, record[5] - CALIBRATION_WINDOW + 1) : record[5] + CALIBRATION_WINDOW + 1]
        for record in records
    ]


def end_to_end(workload: str, checked, setup_s: float, peak_rss_kb: int, calibration):
    """(report lines, JSON metrics).  The JSON metrics are the same on every
    workload; the report lines add the workload's own named figures.  All
    times are at reference host speed."""
    lines = [
        (
            "calibration_s",
            statistics.median(calibration),
            f"s (median, n={len(calibration)}; times below are at {hostspeed.REFERENCE_S} s)",
        )
    ]
    failed = sum(1 for _, _, ok in checked if not ok)
    groups: dict[str, list[float]] = {}
    for op, seconds, _ in checked:
        groups.setdefault(op["group"], []).append(seconds)
    if workload == "fiber-mesh":
        for kind in ("single", "multi", "kruskal"):
            lines.append((f"{kind}_edges_per_s", _rate(checked, (kind,)), "edges/s"))
        work = _rate(checked, ("single", "multi", "kruskal"))
    elif workload == "small-referee":
        work = _rate(checked, ("referee",))
        value, p, n = tail(groups["referee"])
        lines += [
            ("referee_ops_per_s", work, "ops/s"),
            ("referee_p50_s", statistics.median(groups["referee"]), "s"),
            ("referee_tail_s", value, f"s (p{p:g}, n={n})"),
        ]
    else:
        for kind in ("sweep", "compare"):
            lines.append((f"{kind}_s", statistics.median(groups[kind]), f"s (median, n={len(groups[kind])})"))
        work = _rate(checked, ("sweep", "compare"))
    lines += [
        ("setup_s", setup_s, f"s (median, n={SETUP_SAMPLES})"),
        ("peak_rss_mb", peak_rss_kb / 1024.0, "MB"),
        ("failed_frac", failed / len(checked), f"(of {len(checked)} ops)"),
    ]
    metrics = {
        "work_per_s": (work, "1/s"),
        "op_p50_s": (_geomean(statistics.median(v) for v in groups.values()), "s"),
        "answered_frac": (1.0 - failed / len(checked), "fraction"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return lines, metrics


def per_layer(passes, rounds, small_rounds, outputs, span_paths):
    """Per-layer self times, counts and slopes from the traced passes."""
    names, counters, rows = spans.load(span_paths["traced"])
    self_s, calls, roots = spans.layer_stats(names, rows)
    small_names, _, small_rows = spans.load(span_paths["small"])
    small_self = spans.layer_stats(small_names, small_rows)[0]
    ops, small_ops = rounds[0], small_rounds[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    edges = sum(op.get("edges", 0) for op in ops)
    size = sum(op["units"] for op in ops)
    small_size = sum(op["units"] for op in small_ops)
    for layer in SELF_LAYERS:
        full, small = self_s.get(layer, 0.0), small_self.get(layer, 0.0)
        put(f"{layer}.self_s", full, "s")
        slope = math.log(full / small) / math.log(size / small_size) if full > 0 and small > 0 else 0.0
        put(f"{layer}.slope", slope, "1")
    for layer in CALL_LAYERS:
        put(f"{layer}.calls", calls.get(layer, 0), "count")
    put("channels.capacity.calls_per_edge", ratio(calls.get("channels.capacity", 0), edges), "1/edge")
    put("network.make_cut.side_a_points", counters.get("network.make_cut.side_a_points", 0), "count")
    put(
        "single_path.dual_cut_side_a_frac",
        ratio(counters.get("single_path.dual_cut_side_a", 0), counters.get("single_path.points", 0)),
        "1",
    )
    put(
        "multi_path.flow_edges_frac",
        ratio(counters.get("multi_path.flow_edges", 0), counters.get("multi_path.edges", 0)),
        "1",
    )
    put("oracle.cuts", counters.get("oracle.cuts", 0), "count")
    put("oracle.routes", counters.get("oracle.routes", 0), "count")
    traced = passes["traced"]
    cli_bytes = sum(
        len(outputs[out]) for _, index, _, status, out, _ in traced if status == "ok" and ops[index]["kind"] in CLI_KINDS
    )
    put("cli.output_bytes", cli_bytes, "bytes")
    untraced_s = sum(record[2] for record in passes["untraced"])
    traced_s = sum(record[2] for record in traced)
    put("trace.overhead_frac", (traced_s - untraced_s) / untraced_s, "1")
    gaps = [abs(record[2] - total) / record[2] for record, (_, _, total) in zip(traced, roots)]
    put("trace.self_sum_gap_frac", max(gaps), "1")
    return metrics


# --- main ------------------------------------------------------------------------


def measure(args, root: Path, work: Path):
    """(attempted, failed, wrong answers, report lines, JSON metrics)."""
    build = WORKLOADS[args.workload]
    if args.trace:
        rounds = [build(args.seed, work, "full", 0)]
    else:
        rounds = [build(args.seed, work, "full", k) for k in range(workloads.INPUT_SETS[args.workload])]
    job = {"trace": bool(args.trace), "seconds": args.seconds, "rounds": rounds, "outputs": str(work / "outputs.jsonl")}
    if args.trace:
        job["small_rounds"] = [build(args.seed, work, "small", 0)]
        job["spans"] = {name: str(work / f"spans-{name}.txt") for name in ("traced", "small")}
    setup_s = setup_time(root)
    result = run_worker(root, work, job)
    with open(job["outputs"], encoding="utf-8") as handle:
        outputs = [json.loads(line) for line in handle]

    verifier = Verifier()
    checked, wrong = [], []
    for name, records in result["passes"].items():
        c, w = check_records(records, job["small_rounds"] if name == "small" else rounds, outputs, verifier)
        if name in ("timed", "untraced"):
            checked = c
        wrong += w
    failed = sum(1 for _, _, ok in checked if not ok)
    if args.trace:
        metrics = per_layer(result["passes"], rounds, job["small_rounds"], outputs, job["spans"])
        lines = [(name, value, unit) for name, (value, unit) in metrics.items()]
    else:
        calibration = result["calibration"]
        checked = [
            (op, hostspeed.to_reference(seconds, window), ok)
            for (op, seconds, ok), window in zip(checked, calibration_windows(result["passes"]["timed"], calibration))
        ]
        lines, metrics = end_to_end(args.workload, checked, setup_s, result["peak_rss_kb"], calibration)
    return len(checked), failed, wrong, lines, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qnetcap" / "__init__.py").is_file():
        print("error: run from the root of a qnetcap checkout (src/qnetcap is missing)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        attempted, failed, wrong, lines, metrics = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for problem in sorted(set(wrong)):
        print(f"WRONG ANSWER {problem}")
    for name, value, unit in lines:
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
