"""Command-line surface: qnetcap {channel|chain|network|sweep|compare-multiband}.

The CLI performs no capacity arithmetic of its own; every printed number is a
library value passed through one fixed formatter (9 decimal places, '.'
separator, LF line endings), so cells and lines are re-derivable bit-for-bit.

Exit codes: 0 success, 2 invalid input, 3 no route between the end-points.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import channels
from .chains import chain_capacity, equidistant_lossy_capacity
from .errors import (
    InvalidParameter,
    NoRoute,
    ParseError,
    TooLarge,
    UnknownEdge,
    ValidationError,
)
from .multi_path import max_flow
from .network import _load_json, channel_from_json, parse_network
from .single_path import widest_path

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_ROUTE = 3


def format_bits(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if value == 0.0:
        value = 0.0  # never print -0
    return f"{value:.9f}"


def _format_grid_value(value: float) -> str:
    return f"{value:g}"


#: argparse type of each channel parameter type; lists arrive as text.
_FLAG_TYPES = {channels.NUMBER: float, channels.INTEGER: int, channels.NUMBERS: str}
#: Every channel parameter by name, each flag once (``dim`` serves two kinds).
_CHANNEL_FLAGS = {
    param.name: param.type for kind in channels.KINDS.values() for param in kind.params
}


def _channel_from_args(args) -> channels.ChannelSpec:
    """The channel given by the flags, validated like a JSON channel object."""
    obj = {"kind": args.kind}
    for name, type_ in _CHANNEL_FLAGS.items():
        value = getattr(args, name)
        if value is not None:
            if type_ == channels.NUMBERS:
                value = _parse_float_list(value, f"--{name}")
            obj[name] = value
    return channel_from_json(obj)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise InvalidParameter(flag, text, "must be a comma-separated list of numbers") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise InvalidParameter(flag, text, "must be a comma-separated list of integers") from exc


def cmd_channel(args) -> int:
    spec = _channel_from_args(args)
    print(f"{format_bits(channels.capacity(spec))} bits/use")
    return EXIT_OK


def _load_chain_links(args):
    if args.lossy is not None:
        return [channels.lossy(eta) for eta in _parse_float_list(args.lossy, "--lossy")]
    with open(args.file, encoding="utf-8") as handle:
        data = _load_json(handle.read())
    if not isinstance(data, list) or not data:
        raise ValidationError("chain file must be a non-empty JSON array of channels")
    return [
        channel_from_json(obj, where=f"link #{i}") for i, obj in enumerate(data)
    ]


def cmd_chain(args) -> int:
    report = chain_capacity(_load_chain_links(args))
    print(f"capacity: {format_bits(report.value)} bits/use")
    print(f"bottleneck_link: {report.bottleneck_index}")
    return EXIT_OK


def cmd_network(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        net = parse_network(handle.read())
    if args.mode == "single":
        report = widest_path(net)
        print(f"capacity: {format_bits(report.capacity)} bits/use")
        print(f"route: {' -> '.join(report.route.point_sequence)}")
        print(f"route_edges: {','.join(report.route.edge_sequence)}")
        print(f"bottleneck_edge: {report.bottleneck_edge}")
        print(f"dual_cut_side_a: {','.join(report.dual_cut.side_a)}")
        print(f"dual_cut_edges: {','.join(report.dual_cut.cut_set)}")
    else:
        report = max_flow(net)
        print(f"capacity: {format_bits(report.value)} bits/use")
        for edge in net.edges:
            rate = report.effective_rates[edge.edge_id]
            print(f"rate {edge.edge_id} {edge.u}->{edge.v}: {format_bits(rate)}")
        for edge in net.edges:
            oriented = report.orientation.get(edge.edge_id)
            if oriented is not None:
                print(f"orientation {edge.edge_id}: {oriented[0]}->{oriented[1]}")
        print(f"min_cut_side_a: {','.join(report.min_cut.side_a)}")
        print(f"min_cut_edges: {','.join(report.min_cut.cut_set)}")
    return EXIT_OK


def db_grid(start: float, stop: float, step: float) -> list[float]:
    if not (math.isfinite(start) and start >= 0.0):
        raise InvalidParameter("start", start, "must be a non-negative loss in dB")
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidParameter("step", step, "must be positive")
    if not (math.isfinite(stop) and stop >= start):
        raise InvalidParameter("stop", stop, "must be >= start")
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _equidistant_cell(loss_db: float, n_repeaters: int) -> float:
    eta = channels.db_to_transmissivity(loss_db)
    if eta >= 1.0:
        return math.inf  # zero loss: the point-to-point bound diverges
    return equidistant_lossy_capacity(eta, n_repeaters)


def _multiband_cell(loss_db: float, bands: int) -> float:
    eta = channels.db_to_transmissivity(loss_db)
    if eta >= 1.0:
        return math.inf
    return channels.capacity(channels.multiband_lossy(eta, bands))


def sweep_rows(start: float, stop: float, step: float, repeater_counts):
    """Header and rows of the equidistant-repeater sweep CSV."""
    repeater_counts = list(repeater_counts)
    for n in repeater_counts:
        if n < 0:
            raise InvalidParameter("repeaters", n, "must be >= 0")
    header = ["loss_db"] + [f"N{n}" for n in repeater_counts]
    rows = []
    for loss_db in db_grid(start, stop, step):
        rows.append([loss_db] + [_equidistant_cell(loss_db, n) for n in repeater_counts])
    return header, rows


def compare_rows(start, stop, step, bands, repeater_counts, rate_db_per_km=0.2):
    """Header and rows comparing multiband point-to-point use with repeaters."""
    bands = list(bands)
    repeater_counts = list(repeater_counts)
    for m in bands:
        if m < 1:
            raise InvalidParameter("bands", m, "must be >= 1")
    for n in repeater_counts:
        if n < 0:
            raise InvalidParameter("repeaters", n, "must be >= 0")
    if not rate_db_per_km > 0.0:
        raise InvalidParameter("rate_db_per_km", rate_db_per_km, "must be positive")
    header = (
        ["loss_db", "distance_km"]
        + [f"M{m}" for m in bands]
        + [f"N{n}" for n in repeater_counts]
    )
    rows = []
    for loss_db in db_grid(start, stop, step):
        row = [loss_db, loss_db / rate_db_per_km]
        row += [_multiband_cell(loss_db, m) for m in bands]
        row += [_equidistant_cell(loss_db, n) for n in repeater_counts]
        rows.append(row)
    return header, rows


def _write_csv(path: str, header, rows, n_grid_columns: int):
    lines = [",".join(header)]
    for row in rows:
        cells = [_format_grid_value(x) for x in row[:n_grid_columns]]
        cells += [format_bits(x) for x in row[n_grid_columns:]]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_sweep(args) -> int:
    header, rows = sweep_rows(
        args.start, args.stop, args.step, _parse_int_list(args.repeaters, "--repeaters")
    )
    _write_csv(args.out, header, rows, n_grid_columns=1)
    return EXIT_OK


def cmd_compare_multiband(args) -> int:
    header, rows = compare_rows(
        args.start,
        args.stop,
        args.step,
        _parse_int_list(args.bands, "--bands"),
        _parse_int_list(args.repeaters, "--repeaters"),
        rate_db_per_km=args.rate_db_per_km,
    )
    _write_csv(args.out, header, rows, n_grid_columns=2)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetcap",
        description="End-to-end capacities of quantum repeater chains and networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_channel = sub.add_parser("channel", help="capacity of a single channel")
    p_channel.add_argument("--kind", required=True, choices=channels.CHANNEL_KINDS)
    for name, type_ in _CHANNEL_FLAGS.items():
        list_help = "comma-separated numbers" if type_ == channels.NUMBERS else None
        p_channel.add_argument(f"--{name}", type=_FLAG_TYPES[type_], help=list_help)
    p_channel.set_defaults(func=cmd_channel)

    p_chain = sub.add_parser("chain", help="capacity and bottleneck of a chain")
    p_chain.add_argument("file", nargs="?", help="JSON array of channel objects")
    p_chain.add_argument("--lossy", help="comma-separated link transmissivities")
    p_chain.set_defaults(func=cmd_chain)

    p_network = sub.add_parser("network", help="end-to-end network capacity")
    p_network.add_argument("file", help="network JSON document")
    p_network.add_argument("--mode", choices=("single", "multi"), default="single")
    p_network.set_defaults(func=cmd_network)

    p_sweep = sub.add_parser("sweep", help="capacity vs total loss CSV")
    p_sweep.add_argument("--start", type=float, required=True, help="first loss (dB)")
    p_sweep.add_argument("--stop", type=float, required=True, help="last loss (dB)")
    p_sweep.add_argument("--step", type=float, required=True, help="grid step (dB)")
    p_sweep.add_argument(
        "--repeaters", required=True, help="comma-separated repeater counts (N=0 is the point-to-point bound)"
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser(
        "compare-multiband", help="multiband point-to-point vs repeater chains CSV"
    )
    p_cmp.add_argument("--start", type=float, required=True)
    p_cmp.add_argument("--stop", type=float, required=True)
    p_cmp.add_argument("--step", type=float, required=True)
    p_cmp.add_argument("--bands", required=True, help="comma-separated band counts")
    p_cmp.add_argument("--repeaters", required=True, help="comma-separated repeater counts")
    p_cmp.add_argument("--rate-db-per-km", type=float, default=0.2)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare_multiband)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "chain" and (args.file is None) == (args.lossy is None):
        parser.error("chain needs exactly one of FILE or --lossy")
    try:
        return args.func(args)
    except NoRoute as exc:
        print(f"no route: {exc}", file=sys.stderr)
        return EXIT_NO_ROUTE
    except (InvalidParameter, ParseError, ValidationError, UnknownEdge, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
