"""Command-line surface: qnetcap {channel|chain|network|sweep|compare-multiband}.

The CLI performs no capacity arithmetic of its own.  Every printed capacity
is a library value; the CSV commands evaluate the library's formulas once
per grid row instead of once per cell.  A capacity is printed with one format spec (9 decimal places),
shared by :func:`format_bits` and the CSV row template; the CSV grid columns
(loss, distance) carry 12 significant digits.  Output uses '.' separators
and LF line endings, so cells and lines are re-derivable bit-for-bit.

Exit codes: 0 success, 2 invalid input, 3 no route between the end-points.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import channels
from .chains import _link_capacity, chain_capacity
from .channels import FIBER_DB_PER_KM
from .errors import InvalidParameter, NoRoute, QnetcapError, ValidationError
from .multi_path import max_flow
from .network import _load_json, channel_from_json, parse_network
from .single_path import widest_path

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_ROUTE = 3


#: Format specs of a capacity in bits and of a CSV grid value (loss, distance).
_BITS_SPEC = ".9f"
_GRID_SPEC = ".12g"


def format_bits(value: float) -> str:
    if value == 0.0:
        value = 0.0  # never print -0
    return format(value, _BITS_SPEC)


#: argparse type of every channel parameter's flag, each flag once (``dim``
#: serves two kinds); a tuple arrives as comma-separated text.
_CHANNEL_FLAGS = {
    p.name: str if p.type is tuple else p.type for k in channels.KINDS.values() for p in k.params
}


def _channel_from_args(args) -> channels.ChannelSpec:
    """The channel given by the flags, validated like a JSON channel object."""
    obj = {"kind": args.kind}
    for name, type_ in _CHANNEL_FLAGS.items():
        value = getattr(args, name)
        if value is not None:
            if type_ is str:
                value = _parse_list(value, f"--{name}")
            obj[name] = value
    return channel_from_json(obj)


def _parse_list(text: str, flag: str, type_=float) -> list:
    try:
        return [type_(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        noun = "integers" if type_ is int else "numbers"
        raise InvalidParameter(
            flag, text, f"must be a comma-separated list of {noun}"
        ) from exc


def cmd_channel(args) -> int:
    spec = _channel_from_args(args)
    print(f"{format_bits(channels.capacity(spec))} bits/use")
    return EXIT_OK


def _read(path: str) -> bytes:
    """The bytes of a JSON input file, decoded by ``network._load_json``."""
    with open(path, "rb") as handle:
        return handle.read()


def _load_chain_links(args):
    if args.lossy is not None:
        return [channels.lossy(eta) for eta in _parse_list(args.lossy, "--lossy")]
    data = _load_json(_read(args.file))
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
    net = parse_network(_read(args.file))
    if args.mode == "single":
        report = widest_path(net)
        lines = [
            f"capacity: {format_bits(report.capacity)} bits/use",
            f"route: {' -> '.join(report.route.point_sequence)}",
            f"route_edges: {','.join(report.route.edge_sequence)}",
            f"bottleneck_edge: {report.bottleneck_edge}",
            f"dual_cut_side_a: {','.join(report.dual_cut.side_a)}",
            f"dual_cut_edges: {','.join(report.dual_cut.cut_set)}",
        ]
    else:
        report = max_flow(net)
        rates, orientation = report.effective_rates, report.orientation
        lines = [f"capacity: {format_bits(report.value)} bits/use"]
        lines += [
            f"rate {e.edge_id} {e.u}->{e.v}: {format_bits(rates[e.edge_id])}" for e in net.edges
        ]
        lines += [
            f"orientation {e.edge_id}: {'->'.join(orientation[e.edge_id])}"
            for e in net.edges
            if e.edge_id in orientation
        ]
        lines.append(f"min_cut_side_a: {','.join(report.min_cut.side_a)}")
        lines.append(f"min_cut_edges: {','.join(report.min_cut.cut_set)}")
    # One write: a large network has two lines per edge.
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


#: Most rows a loss grid may have: every row is computed before the CSV file
#: is opened, then its lines are streamed (loss-sweep's 0-200 dB at 0.01 dB
#: is 20,001 rows).
_MAX_GRID_ROWS = 10**7


def db_grid(start: float, stop: float, step: float) -> list[float]:
    start = channels._non_negative("start", start)
    step = channels._require_positive("step", step)
    stop = channels._require_finite("stop", stop)
    if stop < start:
        raise InvalidParameter("stop", stop, "must be >= start")
    # Whole steps, one within 1e-9 of the stop counted; checked before any row is built.
    intervals = (stop - start) / step + 1e-9
    if not intervals < _MAX_GRID_ROWS:  # an infinite count fails too
        raise InvalidParameter("step", step, f"leaves more than {_MAX_GRID_ROWS} grid rows")
    return [start + i * step for i in range(int(intervals) + 1)]


def _capacities(losses, bands, repeater_counts):
    """Multiband cells, then equidistant-repeater cells, one list per loss.

    The caller checks the counts once.  Per row only what depends on eta is
    computed: ``point = -log2(1 - eta)`` and ``log(eta)``.  Each cell is then
    the library's own formula, equal to the library call: ``m * point`` as
    in ``capacity(multiband_lossy(eta, m))``, and ``point`` at N = 0 or
    ``_link_capacity(log(eta), N + 1)`` as in
    ``equidistant_lossy_capacity(eta, N)``.
    """
    n_cells = len(bands) + len(repeater_counts)
    # eta underflows to 0.0 beyond ~3,237 dB.  The check of a row's first
    # cell fails first: multiband_lossy names eta, the repeater chain eta_total.
    eta_field = "eta" if bands else "eta_total"
    huge_bands = [m for m in bands if m > channels._SAFE_BANDS]
    for loss_db in losses:
        eta = channels.db_to_transmissivity(loss_db)
        if eta >= 1.0 or not n_cells:
            # zero loss: the point-to-point bound diverges; no cells: no check
            yield [math.inf] * n_cells
            continue
        channels._open_unit(eta_field, eta)
        for m in huge_bands:  # the spec rejects a capacity beyond float range
            channels.multiband_lossy(eta, m)
        point, log_eta = channels._pure_loss(eta), math.log(eta)
        yield [m * point for m in bands] + [
            _link_capacity(log_eta, n + 1) if n else point for n in repeater_counts
        ]


def sweep_rows(start: float, stop: float, step: float, repeater_counts):
    """Header and rows of the equidistant-repeater sweep CSV."""
    repeater_counts = [channels._require_int("repeaters", n, 0) for n in repeater_counts]
    header = ["loss_db"] + [f"N{n}" for n in repeater_counts]
    losses = db_grid(start, stop, step)
    rows = [
        [loss_db, *cells]
        for loss_db, cells in zip(losses, _capacities(losses, (), repeater_counts))
    ]
    return header, rows


def compare_rows(start, stop, step, bands, repeater_counts, rate_db_per_km=FIBER_DB_PER_KM):
    """Header and rows comparing multiband point-to-point use with repeaters."""
    bands = [channels._require_int("bands", m, 1) for m in bands]
    repeater_counts = [channels._require_int("repeaters", n, 0) for n in repeater_counts]
    rate_db_per_km = channels._require_positive("rate_db_per_km", rate_db_per_km)
    header = (
        ["loss_db", "distance_km"]
        + [f"M{m}" for m in bands]
        + [f"N{n}" for n in repeater_counts]
    )
    losses = db_grid(start, stop, step)
    if losses[-1] / rate_db_per_km == math.inf:  # the last distance is the largest
        raise InvalidParameter("rate_db_per_km", rate_db_per_km, "puts a distance beyond float range")
    rows = [
        [loss_db, loss_db / rate_db_per_km, *cells]
        for loss_db, cells in zip(losses, _capacities(losses, bands, repeater_counts))
    ]
    return header, rows


def _write_csv(path: str, header, rows, n_grid_columns: int):
    """Stream the CSV lines, each row formatted by one template.

    No cell needs :func:`format_bits`' -0 guard: for eta in (0, 1) every
    capacity is > 0, and a grid value is >= +0.0.
    """
    specs = [_GRID_SPEC] * n_grid_columns + [_BITS_SPEC] * (len(header) - n_grid_columns)
    template = ",".join("%" + spec for spec in specs) + "\n"

    def write(handle):
        handle.write(",".join(header) + "\n")
        handle.writelines(template % tuple(row) for row in rows)

    if path == "-":
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            write(handle)


def cmd_sweep(args) -> int:
    header, rows = sweep_rows(
        args.start, args.stop, args.step, _parse_list(args.repeaters, "--repeaters", int)
    )
    _write_csv(args.out, header, rows, n_grid_columns=1)
    return EXIT_OK


def cmd_compare_multiband(args) -> int:
    header, rows = compare_rows(
        args.start,
        args.stop,
        args.step,
        _parse_list(args.bands, "--bands", int),
        _parse_list(args.repeaters, "--repeaters", int),
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
        list_help = "comma-separated numbers" if type_ is str else None
        p_channel.add_argument(f"--{name}", type=type_, help=list_help)
    p_channel.set_defaults(func=cmd_channel)

    p_chain = sub.add_parser("chain", help="capacity and bottleneck of a chain")
    p_chain.add_argument("file", nargs="?", help="JSON array of channel objects")
    p_chain.add_argument("--lossy", help="comma-separated link transmissivities")
    p_chain.set_defaults(func=cmd_chain)

    p_network = sub.add_parser("network", help="end-to-end network capacity")
    p_network.add_argument("file", help="network JSON document")
    p_network.add_argument("--mode", choices=("single", "multi"), default="single")
    p_network.set_defaults(func=cmd_network)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--start", type=float, required=True, help="first loss (dB)")
    grid.add_argument("--stop", type=float, required=True, help="last loss (dB)")
    grid.add_argument("--step", type=float, required=True, help="grid step (dB)")

    p_sweep = sub.add_parser("sweep", parents=[grid], help="capacity vs total loss CSV")
    p_sweep.add_argument(
        "--repeaters", required=True, help="comma-separated repeater counts (N=0 is the point-to-point bound)"
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser(
        "compare-multiband", parents=[grid], help="multiband point-to-point vs repeater chains CSV"
    )
    p_cmp.add_argument("--bands", required=True, help="comma-separated band counts")
    p_cmp.add_argument("--repeaters", required=True, help="comma-separated repeater counts")
    p_cmp.add_argument("--rate-db-per-km", type=float, default=FIBER_DB_PER_KM)
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
    except (QnetcapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
