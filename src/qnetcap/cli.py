"""Command-line surface: qnetcap {channel|chain|network|sweep|compare-multiband}.

The CLI performs no capacity arithmetic of its own.  Every printed capacity
is a library value.  Both CSV commands make their rows by one grid
function, :func:`_grid`, the sweep without a distance column and
``compare-multiband`` with one.  It checks a chunk's grid rows at once
(row by row only where a row may fail), then builds each capacity column
in one pass of a library column kernel over the rows' transmissivities
and zips the columns into rows.  A capacity is printed with one format
spec (9 decimal places), shared by :func:`format_bits` and the CSV row
template; the CSV grid columns (loss, distance) carry 12 significant
digits.  Output uses '.' separators and LF line endings, so
cells and lines are re-derivable bit-for-bit.

The CSV commands make their text in chunks of the loss grid, all of it
before the output file opens.  A grid of at least two chunks is shared
between the CPUs the process may use, one forked child per CPU after the
first.  Each child hands its run's text back whole: it writes it into a
memory file of its own and exits, and the parent reads the file once the
child is reaped.  The output, every error and "no file on failure" are
those of one process.

:func:`main` runs each command with the cyclic garbage collector paused,
from argument parsing to the last write, and hands the caller's setting
back however the command ends.  The pause defers collection only: objects
are still freed by reference counting as the command drops them, and a
cycle it leaves (an exception's traceback, say) waits for the first
collection after it returns.  Without the pause, collections during a
``network`` run rescan the objects the parse has just made (an arc list
per point, and a spec per channel other than the usual lossy one).  Forked
grid children inherit the pause.

Exit codes: 0 success, 2 invalid input, 3 no route between the end-points.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
import threading
from itertools import product

from . import channels
from .chains import _link_capacities, chain_capacity
from .channels import FIBER_DB_PER_KM
from .errors import InvalidParameter, NoRoute, QnetcapError, ValidationError
from .multi_path import max_flow
from .network import _gc_paused, _load_json, channel_from_json, parse_network
from .single_path import widest_path

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_ROUTE = 3


#: Format specs of a capacity in bits and of a CSV grid value (loss, distance).
_BITS_SPEC = ".9f"
_GRID_SPEC = ".12g"


def format_bits(value: float) -> str:
    return format(value + 0.0, _BITS_SPEC)  # -0.0 + 0.0 is +0.0: never print -0


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
        raise InvalidParameter(flag, text, f"must be a comma-separated list of {noun}") from exc


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
        lines = [f"capacity: {format_bits(report.value)} bits/use"]
        # effective_rates is in edge order; + 0.0 prints -0.0 as 0, as format_bits does.
        rate, edges = "rate %s %s->%s: %" + _BITS_SPEC, zip(net._index.edge_ids, *net._index.ends())
        lines += [rate % (*edge, r + 0.0) for edge, r in zip(edges, report.effective_rates.values())]
        lines += [f"orientation {eid}: {'->'.join(ends)}" for eid, ends in report.orientation.items()]
        lines.append(f"min_cut_side_a: {','.join(report.min_cut.side_a)}")
        lines.append(f"min_cut_edges: {','.join(report.min_cut.cut_set)}")
    # One write: a large network has two lines per edge.
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


#: Most rows a loss grid may have: every row is computed and formatted, one
#: chunk of rows at a time, before the CSV file is opened (loss-sweep's
#: 0-200 dB at 0.01 dB is 20,001 rows).
_MAX_GRID_ROWS = 10**7
#: Rows computed and formatted at a time.  A grid of at least two chunks is
#: shared between the CPUs the process may use.  On a shared 2-vCPU host
#: (medians of 41 interleaved runs of each command) two processes saved
#: 28-40% of the time from 8,000 rows up in every run; at 2,000-6,000
#: rows, where a fork's fixed cost (~2 ms) weighs more, results ranged
#: from a 43% loss to a 36% gain as the second CPU was busy or idle.
_CHUNK_ROWS = 4000


def db_grid(start: float, stop: float, step: float) -> list[float]:
    """The losses ``start + i * step`` up to ``stop``, a stop within 1e-9 of a step counted.

    A grid of too many rows, one reaching past float range, or one whose
    step is too fine to tell two rows apart is rejected, naming ``step``.
    """
    start = channels._non_negative("start", start)
    step = channels._require_positive("step", step)
    stop = channels._require_finite("stop", stop)
    if stop < start:
        raise InvalidParameter("stop", stop, "must be >= start")
    # Whole steps, one within 1e-9 of the stop counted; checked before any row is built.
    intervals = (stop - start) / step + 1e-9
    if not intervals < _MAX_GRID_ROWS:  # an infinite count fails too
        raise InvalidParameter("step", step, f"leaves more than {_MAX_GRID_ROWS} grid rows")
    if start + int(intervals) * step == math.inf:  # the last row is the largest
        raise InvalidParameter("step", step, "puts a grid row beyond float range")
    rows = [start + i * step for i in range(int(intervals) + 1)]
    # Row i is within one ulp of the last row of start + i * step, so only a
    # step of at most two such ulps can round two rows to one value.
    if step <= 2 * math.ulp(rows[-1]) and len(set(rows)) < len(rows):
        raise InvalidParameter("step", step, "puts two grid rows at one float value")
    return rows


def _capacities(losses, bands, repeater_counts):
    """The cell columns of the rows at ``losses``: multiband, then equidistant-repeater.

    The caller checks the counts once.  Without cells no loss is converted;
    otherwise the chunk's losses are converted in one pass.  A row at
    eta >= 1 reads inf and is not checked.  Any other eta is a float below
    1, so it passes its row's first library check, eta in (0, 1), unless it
    underflowed to 0.0 (beyond ~3,237 dB): ``0.0 in etas`` checks all of
    them at once.  A chunk holding a 0.0, or any chunk when a band count is
    above ``_SAFE_BANDS``, is checked row by row in order, as the library
    calls check it (eta in (0, 1), then each such band count), so the first
    failing row raises the library's error.  Each column is then one pass
    of a library kernel over the eta values, equal cell by cell to the
    library call: ``_multiband_capacities`` as in
    ``capacity(multiband_lossy(eta, m))``; ``point = _pure_loss(eta)`` at
    N = 0 and ``_link_capacities`` of ln(eta) with N + 1 links as in
    ``equidistant_lossy_capacity(eta, N)``.
    """
    etas = list(map(channels.db_to_transmissivity, losses)) if bands or repeater_counts else []
    unit = [i for i, eta in enumerate(etas) if eta >= 1.0]  # zero loss: the bound diverges
    etas = [eta for eta in etas if eta < 1.0] if unit else etas
    huge_bands = [m for m in bands if m > channels._SAFE_BANDS]
    if huge_bands or 0.0 in etas:
        # multiband_lossy names eta, the repeater chain eta_total.
        for eta in etas:
            channels._open_unit("eta" if bands else "eta_total", eta)
            for m in huge_bands:  # the spec rejects a capacity beyond float range
                channels.multiband_lossy(eta, m)
    points, log_etas = list(map(channels._pure_loss, etas)), list(map(math.log, etas))
    columns = [channels._multiband_capacities(m, etas, points) for m in bands]
    # Every column is a list of its own, a copy of points at N = 0: inf is inserted in place.
    columns += [_link_capacities(log_etas, n + 1) if n else points[:] for n in repeater_counts]
    for column, i in product(columns, unit):  # i ascending: each inf lands at its own row
        column.insert(i, math.inf)
    return columns


def _grid(start, stop, step, bands, repeater_counts, rate_db_per_km):
    """Header, losses and row builder of a loss-grid CSV, every argument checked.

    A grid has a distance column exactly when a rate is given: the sweep
    passes ``None`` (and no bands), ``compare-multiband`` the distance's
    ``rate_db_per_km``.  ``rows(part)`` zips the losses of any run of the
    grid with its distance and cell columns into row tuples; a run's rows
    are independent of the others.
    """
    bands = [channels._require_int("bands", m, 1) for m in bands]
    repeater_counts = [channels._require_int("repeaters", n, 0) for n in repeater_counts]
    distance = rate_db_per_km is not None
    if distance:
        rate_db_per_km = channels._require_positive("rate_db_per_km", rate_db_per_km)
    header = ["loss_db", "distance_km"][:1 + distance] + [f"M{m}" for m in bands]
    header += [f"N{n}" for n in repeater_counts]
    losses = db_grid(start, stop, step)
    if distance and losses[-1] / rate_db_per_km == math.inf:  # the last distance is the largest
        raise InvalidParameter("rate_db_per_km", rate_db_per_km, "puts a distance beyond float range")

    def rows(part):
        distances = [[loss_db / rate_db_per_km for loss_db in part]] if distance else []
        return zip(part, *distances, *_capacities(part, bands, repeater_counts))

    return header, losses, rows


def _chunk_texts(run, chunk_text) -> list[str]:
    """The text of ``run``, one string per chunk of at most ``_CHUNK_ROWS`` rows."""
    return [chunk_text(run[i:i + _CHUNK_ROWS]) for i in range(0, len(run), _CHUNK_ROWS)]


def _grid_text(losses, chunk_text) -> list[str]:
    """The text of every row of ``losses``, in order, one string per part.

    The grid is cut into one contiguous run per process: as many processes
    as the CPUs the process may use, at most one per chunk.  A fork copies
    only the calling thread, and an ignored SIGCHLD reaps a child before its
    exit status can be read, so a process running other threads or ignoring
    SIGCHLD (or one without CPU affinity masks or memory files) stays one
    process.  Each run after the first is made by a forked child that writes
    its text into its own memory file (``os.memfd_create``, made before the
    fork) and exits; the parent makes the first run, then reaps each child
    in order and reads its file from the start.  A file is no pipe: it never
    fills, so a child writes without waiting on the parent, and the parent
    reads only a finished run.  A run whose child did not exit 0 is made
    again here, so a failing row raises the error it raises in-process.
    Every child is reaped and every file closed before this returns or
    raises.
    """
    n, procs = len(losses), 1
    forkable = hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create")
    if forkable and threading.active_count() == 1 and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN:
        procs = max(1, min(len(os.sched_getaffinity(0)), n // _CHUNK_ROWS))
    runs = [losses[k * n // procs:(k + 1) * n // procs] for k in range(procs)]
    pids, files = [], []
    try:
        for run in runs[1:]:
            files.append(open(os.memfd_create("qnetcap-grid"), "w+b"))
            pid = os.fork()
            if pid == 0:
                try:  # os._exit runs none of the parent's clean-up and flushes none of its buffers
                    files[-1].writelines(text.encode() for text in _chunk_texts(run, chunk_text))
                    files[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        texts = _chunk_texts(runs[0], chunk_text)
        for run, file in zip(runs[1:], files):
            status = os.waitpid(pids.pop(0), 0)[1]
            file.seek(0)  # the child's writes moved the offset it shares with this copy
            texts += _chunk_texts(run, chunk_text) if status else [file.read().decode()]
        return texts
    finally:
        for file in files:
            file.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_csv(args) -> int:
    """``sweep`` (one grid column: loss) or ``compare-multiband`` (loss, distance).

    Each row is formatted by one template, and all of the text is made
    before the file is opened.  No cell needs :func:`format_bits`' -0
    guard: for eta in (0, 1) every capacity is > 0, and a grid value is >= +0.0.
    """
    bands = _parse_list(args.bands, "--bands", int)
    counts = _parse_list(args.repeaters, "--repeaters", int)
    n = 1 if args.rate_db_per_km is None else 2  # grid columns: loss, and distance at a rate
    header, losses, rows = _grid(args.start, args.stop, args.step, bands, counts, args.rate_db_per_km)
    template = ",".join(["%" + _GRID_SPEC] * n + ["%" + _BITS_SPEC] * (len(header) - n)) + "\n"
    texts = _grid_text(losses, lambda part: "".join(map(template.__mod__, rows(part))))
    texts.insert(0, ",".join(header) + "\n")
    if args.out == "-":
        sys.stdout.writelines(texts)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(texts)
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
    p_sweep.set_defaults(func=cmd_csv, bands="", rate_db_per_km=None)

    p_cmp = sub.add_parser(
        "compare-multiband", parents=[grid], help="multiband point-to-point vs repeater chains CSV"
    )
    p_cmp.add_argument("--bands", required=True, help="comma-separated band counts")
    p_cmp.add_argument("--repeaters", required=True, help="comma-separated repeater counts")
    p_cmp.add_argument("--rate-db-per-km", type=float, default=FIBER_DB_PER_KM)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_csv)
    return parser


@_gc_paused  # from argument parsing to the last write
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
    except (QnetcapError, OSError, UnicodeEncodeError) as exc:  # UnicodeEncodeError: a name stdout cannot carry
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
