"""Command line interface.

Subcommands:

* ``run <file>``: compile and run a circuit file, emit the final density.
* ``demo <name>``: run a packaged circuit file, ``run`` on ``data/<name>.qc``.
* ``laws``: run the twelve law suites and print the report table.

Exit codes (failures are reported on stderr in ``error:`` lines): 0 success,
1 law-suite failure, 2 usage errors (a text ``--precision`` of 2**31 or more
among them), unreadable files and parse diagnostics, 3 numerical
validation failure or a density or text table too large for memory, 141
standard output closed early (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

from .density import DensityMatrix, diagnostics, format_table, max_abs_diff, pure_density, to_json_dict
from .laws import run_all
from .textcircuit import CircuitError, initial_density, parse_circuit, route
from .vector import named_state

_TELEPORT_TOL = 1e-9
# A run's peak in k-wire densities (16 * 4**k bytes each): the input and the
# result, plus up to 8 densities' worth of floats and strings while the result
# is emitted (5-8 measured at 8-10 wires; routing alone peaks at 4).
_PEAK_DENSITIES = 10
_TEXT_PRECISION = 4  # the text table's default decimals, which the budget above covers
# Each further decimal costs about 3.1 bytes (tracemalloc: 3.06-3.25 at 3-5
# wires) per number of the text table's 2 * 4**k while it is built; 4 leaves headroom.
_TABLE_BYTES_PER_DIGIT = 4
_MAX_TEXT_PRECISION = 2 ** 31 - 1  # str.format refuses more digits
_CLOSED_OUTPUT = 141
_DEMOS = ("teleport", "toffoli")  # the packaged data/*.qc files, by stem


class _UsageError(Exception):
    """A rejected command line: the usage text and an ``error:`` line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # raise, so that main() reports it on its own err
        raise _UsageError(f"{self.format_usage()}error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qarrow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument("--format", choices=("text", "json"), default="text")
    emit.add_argument("--precision", type=_precision, default=None,
                      help="decimals in the emitted density (text default: 4)")

    run_p = sub.add_parser("run", parents=[emit], help="compile and run a circuit file")
    run_p.add_argument("file", help="path to a circuit description")
    run_p.add_argument("--validate-input", action="store_true",
                       help="refuse inputs that are not unit-trace Hermitian PSD at tol 1e-6")

    demo_p = sub.add_parser("demo", parents=[emit], help="run a packaged circuit file")
    demo_p.add_argument("name", choices=_DEMOS)
    demo_p.set_defaults(validate_input=False)

    laws_p = sub.add_parser("laws", help="run the monad and arrow law suites")
    laws_p.add_argument("--seed", type=_seed, default=42)
    laws_p.add_argument("--tol", type=_tol, default=1e-9)

    return parser


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be a decimal 64-bit unsigned integer")
    return value


def _precision(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("precision must be a non-negative integer")
    return value


def _tol(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("tolerance must be a positive finite number")
    return value


def _memory_limit() -> int:
    """Bytes of physical memory, or the cgroup v2 ``memory.max`` if that is lower."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            return min(limit, int(fh.read()))
    except (OSError, ValueError):  # no cgroup v2, or "max"
        return limit


def _fits(entries: int, args) -> bool:
    """Whether emitting a density of ``entries`` entries stays under the memory limit."""
    text_digits = args.precision if args.format == "text" and args.precision is not None else 0
    extra_digits = max(text_digits - _TEXT_PRECISION, 0)
    per_entry = _PEAK_DENSITIES * 16 + 2 * _TABLE_BYTES_PER_DIGIT * extra_digits
    return entries * per_entry <= _memory_limit()


def _emit_density(d: DensityMatrix, fmt: str, precision: int | None, out) -> None:
    if fmt == "json":
        print(json.dumps(to_json_dict(d, precision=precision)), file=out)
    else:
        print(format_table(d, precision=_TEXT_PRECISION if precision is None else precision), file=out)


def _cmd_run(args, out, err) -> int:
    try:
        with open(args.file, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=err)
        return 2
    return _run(text, args, out, err)[0]


def _run(text: str, args, out, err) -> tuple[int, DensityMatrix | None]:
    """Parse and run circuit text and emit its final density: the exit code and that density."""
    try:
        ir = parse_circuit(text)
    except CircuitError as exc:
        print(f"error: {exc}", file=err)
        return 2, None
    try:
        if not _fits(4 ** len(ir.wires), args):
            raise MemoryError
        rho = initial_density(ir)
        if args.validate_input:
            report = diagnostics(rho, tol=1e-6)
            if not (report.hermitian and report.psd and report.unit_trace):
                print(
                    f"error: input density failed validation "
                    f"(hermitian={report.hermitian} psd={report.psd} "
                    f"unit_trace={report.unit_trace} max_violation={report.max_violation:.3e})",
                    file=err,
                )
                return 3, None
        result = route(ir).apply(rho)
        _emit_density(result, args.format, args.precision, out)
    except MemoryError:
        print(f"error: the density of a {len(ir.wires)}-wire circuit does not fit in memory", file=err)
        return 3, None
    return 0, result


def _cmd_demo(args, out, err) -> int:
    text = (resources.files(__package__) / "data" / f"{args.name}.qc").read_text(encoding="utf-8")
    code, result = _run(text, args, out, err)
    if code == 0 and args.name == "teleport":  # the file teleports the state of its "init q FT"
        deviation = max_abs_diff(result, pure_density(named_state("qFT")))
        # in JSON mode stdout holds the one JSON document and nothing else
        print(f"max deviation from expected output: {deviation:.3e}",
              file=err if args.format == "json" else out)
        if deviation > _TELEPORT_TOL:
            print(f"error: teleport deviated by {deviation:.3e} (tol {_TELEPORT_TOL})", file=err)
            return 3
    return code


def _cmd_laws(args, out, err) -> int:
    reports = run_all(seed=args.seed, tol=args.tol)
    name_w = max(len(r.name) for r in reports)
    print(f"{'law'.ljust(name_w)}  {'cases':>6}  {'max residual':>13}  result", file=out)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(name_w)}  {r.cases:>6}  {r.max_residual:>13.3e}  {status}", file=out)
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(f"error: {r.name} failed, worst case: {r.worst_case}", file=err)
    return 1 if failures else 0


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=err)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command != "laws" and args.format == "text" and (args.precision or 0) > _MAX_TEXT_PRECISION:
        print(f"error: a text --precision must be at most {_MAX_TEXT_PRECISION}", file=err)
        return 2
    if args.command == "run":
        return _cmd_run(args, out, err)
    if args.command == "demo":
        return _cmd_demo(args, out, err)
    return _cmd_laws(args, out, err)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # output that fit the buffer meets a closed pipe only here
    except BrokenPipeError:
        # the recipe in Python's signal docs: point stdout at devnull, so the
        # interpreter's own flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the result was written", file=sys.stderr)
        code = _CLOSED_OUTPUT
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
