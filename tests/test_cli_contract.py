"""A standing, derandomized fuzz of the command-line contract.

Every invocation below is valid for the argument parser (a value that
could read as a flag, such as ``-inf``, is joined to its flag by ``=``), so
whatever the values, ``qnetcap`` must exit 0, 2 or 3, write at most one line to stderr
and never let an exception out.  The invocations are mutations, drawn from
fixed seeds, of the ``tests/data`` networks, of chain files, of the
``channel`` flags and of the ``sweep``/``compare-multiband`` arguments,
with nan, inf, 1e400, huge integers and empty lists among the values.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import qnetcap
from qnetcap import cli
from qnetcap.channels import CHANNEL_KINDS

DATA = pathlib.Path(__file__).parent / "data"
NETWORKS = ["diamond", "ties36", "ends_reversed"]

#: JSON values a mutation puts in place of another; the floats dump as
#: NaN/Infinity, which the decoder reads back.
HOSTILE_VALUES = [
    None, True, False, 0, -1, 2, 0.5, 1.0, 1.5, -0.0, 5e-324, 1e308, math.nan, math.inf,
    -math.inf, 10**400, "", "a", "e0", "kind", [], {}, [0.5, 0.5], [1, "a"], {"kind": "lossy"},
]
#: Text of a float flag, of an int flag and of a comma-separated list.
FLOAT_TEXTS = ["0", "-0", "0.5", "1", "1.5", "2", "7", "nan", "inf", "-inf", "1e400", "-1e400",
               "5e-324", "1e-320", "1e308", "-1"]
INT_TEXTS = ["0", "1", "2", "3", "4", "-1", "1" + "0" * 306, "1" + "0" * 309, "1" + "0" * 400]
LIST_TEXTS = ["", ",", "0.5,0.5", "1", "0", "0.5,nan", "inf,0", "1e400,-1e400", "0.2,0.8",
              "0.25,0.25,0.25,0.25", "1,0,0", "x", "0.5,,0.5", "-0.5,1.5"]
COUNT_TEXTS = ["", "0", "1", "0,1,2", "1,10,100", "0,0", "-1", "1.5", "nan", "x",
               "1" + "0" * 307, "1" + "0" * 400, "2,1" + "0" * 309]
#: Grid ends and steps: every accepted grid has fewer rows than two chunks,
#: so no invocation forks.
GRID_ENDS = ["0", "-0", "1", "3", "30", "200", "3300", "1e16", "10000000000000002",
             "1.7976931348623157e308", "nan", "inf", "-inf", "1e400", "-1", "5e-324"]
GRID_STEPS = ["1", "0.5", "7", "100", "1e16", "1e308", "5e-324", "0", "-0", "-1", "nan", "inf",
              "1e400"]


def invoke(argv):
    """Exit code, stdout and stderr of one in-process ``qnetcap`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(argvs):
    """The exit codes seen, and the invocations that break the contract,
    each with what it did."""
    codes, breaches = set(), []
    for argv in argvs:
        try:
            code, out, err = invoke(argv)
        except Exception as exc:  # an escape is a breach, reported with the rest
            breaches.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        codes.add(code)
        if code not in (0, 2, 3) or err.count("\n") > 1 or "Traceback" in out + err:
            breaches.append((argv, code, err[:300]))
    return codes, breaches


def mutate(rng, value):
    """``value`` (a JSON tree) with one random node replaced, dropped or added."""
    paths = []

    def walk(node, path):
        paths.append(path)
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            walk(child, path + (key,))

    walk(value, ())
    path = rng.choice(paths)
    if not path:
        return rng.choice(HOSTILE_VALUES)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    key, action = path[-1], rng.randrange(5)
    if action == 0 and isinstance(parent, dict):
        del parent[key]
    elif action == 1 and isinstance(parent, dict):
        parent[rng.choice(["eta", "gain", "bands", "extra", "id", "kind"])] = rng.choice(HOSTILE_VALUES)
    elif action == 2 and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))  # a repeated entry
    elif action == 3 and isinstance(parent, list):
        del parent[key]
    else:
        parent[key] = rng.choice(HOSTILE_VALUES)
    return value


def document_text(rng, value):
    """JSON text of ``value``, now and then cut short or with a stray byte."""
    text = json.dumps(value)
    roll = rng.random()
    if roll < 0.05:
        return text[: rng.randrange(len(text) + 1)]
    if roll < 0.10:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(["\x00", "}", ",", '"', "\udcff"]) + text[i:]
    return text


def write(path, text):
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return str(path)


def network_argvs(tmp_path, n):
    rng = random.Random("network")
    bases = {name: json.loads((DATA / f"{name}.json").read_text(encoding="utf-8")) for name in NETWORKS}
    argvs = []
    for i in range(n):
        doc = json.loads(json.dumps(bases[rng.choice(NETWORKS)]))
        if rng.random() < 0.1:  # cut alice off
            doc["edges"] = [e for e in doc["edges"] if doc["alice"] not in (e["u"], e["v"])]
        for _ in range(rng.choice([1, 1, 2, 3])):
            doc = mutate(rng, doc)
        path = write(tmp_path / f"net{i}.json", document_text(rng, doc))
        argvs.append(["network", path, "--mode", rng.choice(["single", "multi"])])
    return argvs


SAMPLE_CHAIN = [
    {"kind": "lossy", "eta": 0.5},
    {"kind": "amplifier", "gain": 2.5},
    {"kind": "dephasing", "probs": [0.7, 0.2, 0.1]},
    {"kind": "erasure", "p": 0.25, "dim": 4},
    {"kind": "multiband_lossy", "eta": 0.3, "bands": 3},
]


def chain_argvs(tmp_path, n):
    rng = random.Random("chain")
    argvs = []
    for i in range(n):
        if rng.random() < 0.3:
            lossy = ",".join(rng.choice(FLOAT_TEXTS + ["", "x"]) for _ in range(rng.randrange(4)))
            argvs.append(["chain", f"--lossy={lossy}"])
            continue
        links = rng.sample(SAMPLE_CHAIN, rng.randrange(1, len(SAMPLE_CHAIN) + 1))
        links = json.loads(json.dumps(links))
        for _ in range(rng.choice([1, 1, 2])):
            links = mutate(rng, links)
        argvs.append(["chain", write(tmp_path / f"chain{i}.json", document_text(rng, links))])
    return argvs


def channel_argvs(n):
    rng = random.Random("channel")
    texts = {float: FLOAT_TEXTS, int: INT_TEXTS, str: LIST_TEXTS}
    argvs = []
    for _ in range(n):
        argv = ["channel", "--kind", rng.choice(CHANNEL_KINDS)]
        for name, type_ in cli._CHANNEL_FLAGS.items():
            if rng.random() < 0.4:
                argv.append(f"--{name}={rng.choice(texts[type_])}")
        argvs.append(argv)
    return argvs


def csv_argvs(tmp_path, n):
    rng = random.Random("csv")
    argvs = []
    for _ in range(n):
        compare = rng.random() < 0.5
        argv = ["compare-multiband" if compare else "sweep", f"--start={rng.choice(GRID_ENDS)}",
                f"--stop={rng.choice(GRID_ENDS)}", f"--step={rng.choice(GRID_STEPS)}",
                f"--repeaters={rng.choice(COUNT_TEXTS)}"]
        if compare:
            argv.append(f"--bands={rng.choice(COUNT_TEXTS)}")
            if rng.random() < 0.5:
                argv.append(f"--rate-db-per-km={rng.choice(FLOAT_TEXTS)}")
        out = rng.choice(["-", "-", str(tmp_path / "grid.csv"), str(tmp_path / "missing" / "grid.csv")])
        argvs.append([*argv, "--out", out])
    return argvs


#: Each family's invocations and the exit codes they must reach: the
#: mutations are not all rejected, and a network mutation can cut alice
#: off from bob.
FAMILIES = {
    "network": (lambda tmp_path: network_argvs(tmp_path, 400), {0, 2, 3}),
    "chain": (lambda tmp_path: chain_argvs(tmp_path, 200), {0, 2}),
    "channel": (lambda tmp_path: channel_argvs(250), {0, 2}),
    "csv": (lambda tmp_path: csv_argvs(tmp_path, 300), {0, 2}),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_invocation_keeps_the_contract(tmp_path, family):
    build, reached = FAMILIES[family]
    codes, breaches = run(build(tmp_path))
    assert breaches == []
    assert codes == reached


def test_a_warning_keeps_the_one_stderr_line_contract():
    # In a fresh interpreter with every warning an error: a dephasing
    # distribution with more than 1/2 on a phase rotation is an ordinary
    # input, so the command prints its capacity and nothing on stderr.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(pathlib.Path(qnetcap.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qnetcap.cli",
         "channel", "--kind", "dephasing", "--probs", "0.2,0.8"],
        env=env, capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "0.278071905 bits/use\n", "")
