"""README examples run as written: the network JSON format example and the
literal values of the library quick tour."""

import pathlib
import re

import pytest

import qnetcap
from qnetcap import parse_network
from qnetcap.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(language):
    """The first ```language block of the README."""
    return re.search(rf"```{language}\n(.*?)```", README, re.S).group(1)


@pytest.mark.parametrize("mode", ["single", "multi"])
def test_network_json_example(tmp_path, capsys, mode):
    document = fenced("json")
    assert len(parse_network(document).edges) == 5
    path = tmp_path / "network.json"
    path.write_text(document, encoding="utf-8")
    assert main(["network", str(path), "--mode", mode]) == 0
    assert capsys.readouterr().out.startswith("capacity: ")


#: Quick-tour calls and the value each one's comment states.
TOUR_VALUES = {
    "q.capacity(q.lossy(0.5))": ("1.0 bit/use", 1.0),
    "q.max_link_loss_for_rate(1.0)": ("3.0103 dB", pytest.approx(3.0103, abs=5e-5)),
    "q.chain_capacity([q.lossy(0.9), q.lossy(0.5)])": (
        "ChainCapacity(value=1.0, bottleneck_index=1)",
        qnetcap.ChainCapacity(1.0, 1),
    ),
}


@pytest.mark.parametrize("call", TOUR_VALUES)
def test_quick_tour_value(call):
    comment, value = TOUR_VALUES[call]
    line = next(line for line in fenced("python").splitlines() if line.startswith(call))
    assert line.split("#", 1)[1].strip().startswith(comment)
    assert eval(call, {"q": qnetcap}) == value
