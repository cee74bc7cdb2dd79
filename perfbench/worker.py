"""Runs one workload's ops against qnetcap: one caller, closed loop.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json`` with ``src`` on
``PYTHONPATH``; ``perfbench/run.py`` writes the job and reads the result.

Each op is timed on its own; its answer is turned into plain text or JSON
after the clock stops and written out once per distinct value.  In a traced
job the first round runs once without tracing, once with every qnetcap
function wrapped (see ``spans.py``), and once more traced on the
scaled-down inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import resource
import sys
import time
import warnings

import qnetcap
from qnetcap import cli, multi_path, network, oracle, single_path
from qnetcap.errors import ParameterRegimeWarning

import hostspeed
from spans import Tracer


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_network(op):
    return _cli(["network", op["file"], "--mode", op["kind"]])


def run_kruskal(op):
    with open(op["file"], encoding="utf-8") as handle:
        net = network.parse_network(handle.read())
    return 0, single_path.tree_route_capacity(net, single_path.max_spanning_tree(net))


def run_referee(op):
    net = network.parse_network(op["doc"])
    widest = single_path.widest_path(net)
    tree = single_path.tree_route_capacity(net, single_path.max_spanning_tree(net))
    flow = multi_path.max_flow(net)
    return 0, {
        "widest": widest,
        "tree": tree,
        "flow": flow,
        "single_cut_value": network.cut_single_edge_value(net, widest.dual_cut),
        "multi_cut_value": network.cut_multi_edge_value(net, flow.min_cut),
        "brute_single": oracle.brute_single_path_capacity(net),
        "brute_multi": oracle.brute_multi_path_capacity(net),
    }


def run_csv(op):
    code, _ = _cli(op["argv"] + ["--out", op["out"]])
    return code, None


RUNNERS = {
    "single": run_network,
    "multi": run_network,
    "kruskal": run_kruskal,
    "referee": run_referee,
    "sweep": run_csv,
    "compare": run_csv,
}


def _route(report) -> dict:
    return {
        "capacity": report.capacity,
        "route_points": list(report.route.point_sequence),
        "route_edges": list(report.route.edge_sequence),
        "bottleneck": report.bottleneck_edge,
        "side_a": list(report.dual_cut.side_a),
        "cut_edges": list(report.dual_cut.cut_set),
    }


def _flow(report, net_doc) -> dict:
    return {
        "value": report.value,
        "rates": [
            [e["id"], e["u"], e["v"], report.effective_rates[e["id"]]] for e in net_doc["edges"]
        ],
        "side_a": list(report.min_cut.side_a),
        "cut_edges": list(report.min_cut.cut_set),
    }


def describe(op, result) -> str:
    """The op's answer as text, for de-duplication and later verification."""
    kind = op["kind"]
    if kind in ("single", "multi"):
        return result
    if kind in ("sweep", "compare"):
        with open(op["out"], encoding="utf-8") as handle:
            return handle.read()
    if kind == "kruskal":
        return json.dumps(_route(result))
    brute = result["brute_single"]
    return json.dumps(
        {
            "widest": _route(result["widest"]),
            "tree": _route(result["tree"]),
            "flow": _flow(result["flow"], json.loads(op["doc"])),
            "single_cut_value": result["single_cut_value"],
            "multi_cut_value": result["multi_cut_value"],
            "brute_route_value": brute.route_value,
            "brute_cut_value": brute.cut_value,
            "brute_multi": result["brute_multi"],
        }
    )


class Outputs:
    """Distinct answers, appended to a file as they appear.

    Only a digest per answer stays in memory, so the worker's peak RSS does
    not depend on how many rounds or input sets a run gets through.
    """

    def __init__(self, path: str):
        self._handle = open(path, "w", encoding="utf-8")
        self._ids: dict[bytes, int] = {}

    def add(self, text: str) -> int:
        digest = hashlib.sha256(text.encode()).digest()
        if digest not in self._ids:
            self._ids[digest] = len(self._ids)
            self._handle.write(json.dumps(text) + "\n")
        return self._ids[digest]

    def close(self):
        self._handle.close()


def run_pass(rounds, seconds, outputs, tracer=None, calibration=None):
    """Whole rounds, cycling through ``rounds``, until ``seconds`` have
    passed (at least one round).  With a ``calibration`` list,
    ``hostspeed.calibrate`` samples are appended before an op, as many as
    ``hostspeed.samples_due`` asks for, and once more at the end.

    Returns records ``[round, op index, seconds, status, output id,
    calibration index]``; status is ``ok``, ``exit N`` or the name of the
    exception the op raised, and the calibration index is that of the last
    sample taken before the op (-1 without calibration).
    """
    records = []
    started = time.perf_counter()
    last_sample = started - hostspeed.EVERY_S
    for count in itertools.count():
        round_index = count % len(rounds)
        for index, op in enumerate(rounds[round_index]):
            due = hostspeed.samples_due(time.perf_counter() - last_sample) if calibration is not None else 0
            if due:
                calibration.extend(hostspeed.calibrate() for _ in range(due))
                last_sample = time.perf_counter()
            t0 = time.perf_counter()
            root = tracer.begin("bench.op") if tracer else None
            try:
                code, result = RUNNERS[op["kind"]](op)
                status = "ok" if code == 0 else f"exit {code}"
            except Exception as exc:  # a failed op is recorded; the loop goes on
                status, result = type(exc).__name__, None
            finally:
                if tracer:
                    tracer.finish(root)
            elapsed = time.perf_counter() - t0
            out = outputs.add(describe(op, result)) if status == "ok" else None
            sample = len(calibration) - 1 if calibration is not None else -1
            records.append([round_index, index, elapsed, status, out, sample])
        if time.perf_counter() - started >= seconds:
            if calibration is not None:  # the samples after the last op
                due = max(1, hostspeed.samples_due(time.perf_counter() - last_sample))
                calibration.extend(hostspeed.calibrate() for _ in range(due))
            return records


def main(job_path: str, result_path: str):
    warnings.filterwarnings("ignore", category=ParameterRegimeWarning)
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    outputs = Outputs(job["outputs"])
    passes = {}
    result = {"passes": passes}
    try:
        if not job["trace"]:
            result["calibration"] = []
            passes["timed"] = run_pass(job["rounds"], job["seconds"], outputs, calibration=result["calibration"])
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            passes["untraced"] = run_pass(job["rounds"], 0, outputs)
            tracer = Tracer()
            tracer.install(qnetcap)
            for name, rounds in (("traced", job["rounds"]), ("small", job["small_rounds"])):
                tracer.reset()
                passes[name] = run_pass(rounds, 0, outputs, tracer)
                tracer.dump(job["spans"][name])
    finally:
        outputs.close()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
