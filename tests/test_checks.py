"""Every check of an input number at its boundaries, value for value.

The table holds, for each check and input, the value returned (by
``repr``) or the exception raised (by type and message).  It was recorded
from the separate range checks that ``channels._interval`` replaced, and
the one entry changed since is marked.  ``transmissivity_to_db`` stands for
the (0, 1] check inside it.
"""

import math
import sys
from functools import partial

import pytest

from qnetcap import channels

INPUTS = {
    "-0.0": -0.0,
    "0.0": 0.0,
    "ulp(0)": math.ulp(0.0),
    "1 - 2**-53": 1.0 - 2.0**-53,
    "1.0": 1.0,
    "1 + 2**-52": 1.0 + 2.0**-52,
    "max": sys.float_info.max,
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
    "True": True,
    "0": 0,
    "2": 2,
    "'0.5'": "0.5",
}

CHECKS = {
    "_open_unit": partial(channels._open_unit, "x"),
    "_unit": partial(channels._unit, "x"),
    "_above_one": partial(channels._above_one, "x"),
    "_require_positive": partial(channels._require_positive, "x"),
    "_non_negative": partial(channels._non_negative, "x"),
    "transmissivity_to_db": channels.transmissivity_to_db,
    "_require_int_0": partial(channels._require_int, "x", minimum=0),
    "_require_int_1": partial(channels._require_int, "x", minimum=1),
    "_require_int_2": partial(channels._require_int, "x", minimum=2),
}

EXPECTED = {
    "_open_unit": {
        "-0.0": "InvalidParameter: x=-0.0: must lie strictly inside (0, 1)",
        "0.0": "InvalidParameter: x=0.0: must lie strictly inside (0, 1)",
        "ulp(0)": "5e-324",
        "1 - 2**-53": "0.9999999999999999",
        "1.0": "InvalidParameter: x=1.0: must lie strictly inside (0, 1)",
        "1 + 2**-52": "InvalidParameter: x=1.0000000000000002: must lie strictly inside (0, 1)",
        "max": "InvalidParameter: x=1.7976931348623157e+308: must lie strictly inside (0, 1)",
        "inf": "InvalidParameter: x=inf: must be finite",
        "-inf": "InvalidParameter: x=-inf: must be finite",
        "nan": "InvalidParameter: x=nan: must be finite",
        "True": "InvalidParameter: x=True: must be a real number",
        "0": "InvalidParameter: x=0.0: must lie strictly inside (0, 1)",
        "2": "InvalidParameter: x=2.0: must lie strictly inside (0, 1)",
        "'0.5'": "InvalidParameter: x='0.5': must be a real number",
    },
    "_unit": {
        "-0.0": "-0.0",
        "0.0": "0.0",
        "ulp(0)": "5e-324",
        "1 - 2**-53": "0.9999999999999999",
        "1.0": "1.0",
        "1 + 2**-52": "InvalidParameter: x=1.0000000000000002: must lie in [0, 1]",
        "max": "InvalidParameter: x=1.7976931348623157e+308: must lie in [0, 1]",
        "inf": "InvalidParameter: x=inf: must be finite",
        "-inf": "InvalidParameter: x=-inf: must be finite",
        "nan": "InvalidParameter: x=nan: must be finite",
        "True": "InvalidParameter: x=True: must be a real number",
        "0": "0.0",
        "2": "InvalidParameter: x=2.0: must lie in [0, 1]",
        "'0.5'": "InvalidParameter: x='0.5': must be a real number",
    },
    "_above_one": {
        "-0.0": "InvalidParameter: x=-0.0: must be strictly greater than 1",
        "0.0": "InvalidParameter: x=0.0: must be strictly greater than 1",
        "ulp(0)": "InvalidParameter: x=5e-324: must be strictly greater than 1",
        "1 - 2**-53": "InvalidParameter: x=0.9999999999999999: must be strictly greater than 1",
        "1.0": "InvalidParameter: x=1.0: must be strictly greater than 1",
        "1 + 2**-52": "1.0000000000000002",
        "max": "1.7976931348623157e+308",
        "inf": "InvalidParameter: x=inf: must be finite",
        "-inf": "InvalidParameter: x=-inf: must be finite",
        "nan": "InvalidParameter: x=nan: must be finite",
        "True": "InvalidParameter: x=True: must be a real number",
        "0": "InvalidParameter: x=0.0: must be strictly greater than 1",
        "2": "2.0",
        "'0.5'": "InvalidParameter: x='0.5': must be a real number",
    },
    "_require_positive": {
        "-0.0": "InvalidParameter: x=-0.0: must be positive",
        "0.0": "InvalidParameter: x=0.0: must be positive",
        "ulp(0)": "5e-324",
        "1 - 2**-53": "0.9999999999999999",
        "1.0": "1.0",
        "1 + 2**-52": "1.0000000000000002",
        "max": "1.7976931348623157e+308",
        "inf": "InvalidParameter: x=inf: must be finite",
        "-inf": "InvalidParameter: x=-inf: must be finite",
        "nan": "InvalidParameter: x=nan: must be finite",
        "True": "InvalidParameter: x=True: must be a real number",
        "0": "InvalidParameter: x=0.0: must be positive",
        "2": "2.0",
        "'0.5'": "InvalidParameter: x='0.5': must be a real number",
    },
    "_non_negative": {
        "-0.0": "-0.0",
        "0.0": "0.0",
        "ulp(0)": "5e-324",
        "1 - 2**-53": "0.9999999999999999",
        "1.0": "1.0",
        "1 + 2**-52": "1.0000000000000002",
        "max": "1.7976931348623157e+308",
        "inf": "InvalidParameter: x=inf: must be finite",
        "-inf": "InvalidParameter: x=-inf: must be finite",
        "nan": "InvalidParameter: x=nan: must be finite",
        "True": "InvalidParameter: x=True: must be a real number",
        "0": "0.0",
        "2": "2.0",
        "'0.5'": "InvalidParameter: x='0.5': must be a real number",
    },
    "transmissivity_to_db": {
        "-0.0": "InvalidParameter: eta=-0.0: must lie in (0, 1]",
        "0.0": "InvalidParameter: eta=0.0: must lie in (0, 1]",
        "ulp(0)": "3233.062153431158",
        "1 - 2**-53": "4.821637332766436e-16",
        "1.0": "0.0",  # -0.0 before zero loss was made to read 0.0
        "1 + 2**-52": "InvalidParameter: eta=1.0000000000000002: must lie in (0, 1]",
        "max": "InvalidParameter: eta=1.7976931348623157e+308: must lie in (0, 1]",
        "inf": "InvalidParameter: eta=inf: must be finite",
        "-inf": "InvalidParameter: eta=-inf: must be finite",
        "nan": "InvalidParameter: eta=nan: must be finite",
        "True": "InvalidParameter: eta=True: must be a real number",
        "0": "InvalidParameter: eta=0.0: must lie in (0, 1]",
        "2": "InvalidParameter: eta=2.0: must lie in (0, 1]",
        "'0.5'": "InvalidParameter: eta='0.5': must be a real number",
    },
    "_require_int_0": {
        "-0.0": "InvalidParameter: x=-0.0: must be an integer",
        "0.0": "InvalidParameter: x=0.0: must be an integer",
        "ulp(0)": "InvalidParameter: x=5e-324: must be an integer",
        "1 - 2**-53": "InvalidParameter: x=0.9999999999999999: must be an integer",
        "1.0": "InvalidParameter: x=1.0: must be an integer",
        "1 + 2**-52": "InvalidParameter: x=1.0000000000000002: must be an integer",
        "max": "InvalidParameter: x=1.7976931348623157e+308: must be an integer",
        "inf": "InvalidParameter: x=inf: must be an integer",
        "-inf": "InvalidParameter: x=-inf: must be an integer",
        "nan": "InvalidParameter: x=nan: must be an integer",
        "True": "InvalidParameter: x=True: must be an integer",
        "0": "0",
        "2": "2",
        "'0.5'": "InvalidParameter: x='0.5': must be an integer",
    },
    "_require_int_1": {
        "-0.0": "InvalidParameter: x=-0.0: must be an integer",
        "0.0": "InvalidParameter: x=0.0: must be an integer",
        "ulp(0)": "InvalidParameter: x=5e-324: must be an integer",
        "1 - 2**-53": "InvalidParameter: x=0.9999999999999999: must be an integer",
        "1.0": "InvalidParameter: x=1.0: must be an integer",
        "1 + 2**-52": "InvalidParameter: x=1.0000000000000002: must be an integer",
        "max": "InvalidParameter: x=1.7976931348623157e+308: must be an integer",
        "inf": "InvalidParameter: x=inf: must be an integer",
        "-inf": "InvalidParameter: x=-inf: must be an integer",
        "nan": "InvalidParameter: x=nan: must be an integer",
        "True": "InvalidParameter: x=True: must be an integer",
        "0": "InvalidParameter: x=0: must be >= 1",
        "2": "2",
        "'0.5'": "InvalidParameter: x='0.5': must be an integer",
    },
    "_require_int_2": {
        "-0.0": "InvalidParameter: x=-0.0: must be an integer",
        "0.0": "InvalidParameter: x=0.0: must be an integer",
        "ulp(0)": "InvalidParameter: x=5e-324: must be an integer",
        "1 - 2**-53": "InvalidParameter: x=0.9999999999999999: must be an integer",
        "1.0": "InvalidParameter: x=1.0: must be an integer",
        "1 + 2**-52": "InvalidParameter: x=1.0000000000000002: must be an integer",
        "max": "InvalidParameter: x=1.7976931348623157e+308: must be an integer",
        "inf": "InvalidParameter: x=inf: must be an integer",
        "-inf": "InvalidParameter: x=-inf: must be an integer",
        "nan": "InvalidParameter: x=nan: must be an integer",
        "True": "InvalidParameter: x=True: must be an integer",
        "0": "InvalidParameter: x=0: must be >= 2",
        "2": "2",
        "'0.5'": "InvalidParameter: x='0.5': must be an integer",
    },
}


def outcome(check, value):
    try:
        return repr(check(value))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("label", INPUTS)
@pytest.mark.parametrize("name", CHECKS)
def test_boundary(name, label):
    assert outcome(CHECKS[name], INPUTS[label]) == EXPECTED[name][label]


def test_every_interval_check_is_in_the_table():
    intervals = {
        name for name, value in vars(channels).items()
        if getattr(value, "__qualname__", "") == "_interval.<locals>.check"
    }
    # _transmissivity's row is transmissivity_to_db's.
    assert intervals == {
        "_open_unit", "_unit", "_above_one", "_require_positive", "_non_negative", "_transmissivity"
    }


@pytest.mark.parametrize("name", [name for name in CHECKS if not name.startswith("_require_int")])
def test_integer_beyond_float_range_is_not_finite(name):
    # float() of this int raises OverflowError; the check names it instead.
    field = "eta" if name == "transmissivity_to_db" else "x"
    assert outcome(CHECKS[name], 10**400) == f"InvalidParameter: {field}={10**400}: must be finite"
