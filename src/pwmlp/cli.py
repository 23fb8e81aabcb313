"""Command-line interface.

Commands: build, eval, verify, convergence, fit-kernel, info.
Exit codes: 0 success (verify: pass), 1 verification failure, 2 usage
error, 3 unreadable or malformed input file, 4 numerical failure.

Data outputs (CSV/JSON) are bytewise reproducible: numbers are written
in shortest round-trip decimal and no timestamps are embedded.  The
version banner goes to standard error only.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
import warnings

import numpy as np

from . import __version__
from .activations import DEFAULT_SLOPE, solve_cubic_coefficients
from .analysis import estimate_order, uniform_grid, verify_equivalence
from .builders import METHODS, build_network, matching_oracle
from .errors import DomainError, FormatError, NumericalError, UsageError
from .grids import KnotGrid, TargetSamples
from .network import forward_grid, load_model, save_model
from .oracle import KernelKind, fit_kernel_weights
from .targets import TARGETS, get_target

KERNEL_CHOICES = ("box", "triangle", "cubic")


def _repr_num(v):
    return repr(float(v))


def _decode(raw, path):
    """raw decoded as UTF-8; FormatError naming the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("not UTF-8 text: %s at byte %d"
                          % (exc.reason, exc.start), path=path) from None


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_text(path):
    """The file at path, decoded as UTF-8."""
    return _decode(_read_bytes(path), path)


def _parse_float(cell, where):
    try:
        return float(cell)
    except ValueError:
        raise FormatError("not a number: %r" % (cell,), path=where) from None


# loadtxt skips the ASCII separators FS, GS, RS and US around a number
# as blanks; float() refuses them.  In UTF-8 these bytes stand only for
# themselves.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# One line with its ending, split as io.StringIO(newline="") splits
# text: at \r\n, \r or \n.  A multi-byte UTF-8 character holds none of
# these bytes, so each line decodes on its own.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _read_csv(path):
    """The header of a CSV file and the nonblank rows after it, as a
    float array as wide as the header.  Rows are numbered from 1 at the
    header.

    The bytes are read once, for the header, the separator scan and the
    walk.  The header record is decoded line by line as a csv.reader
    asks for lines.  np.loadtxt reads the body from the path in C, which
    measured faster than giving it the decoded text, and decodes it as
    UTF-8.  Where the text holds a character it reads differently from
    float(), or it refuses the text, warns (an empty body) or returns
    another width, the whole text is decoded and a csv.reader walks the
    body after the header record, which gives float() of each cell or
    names the bad row or cell.  So a copy of the whole text exists only
    on that walk.
    """
    raw = _read_bytes(path)
    reader = csv.reader(m.group().decode("utf-8") for m in _LINE.finditer(raw))
    row = 0  # the last record read; a csv.Error is in the next one
    try:
        try:
            header = next(reader, None)
        except UnicodeDecodeError:
            _decode(raw, path)  # raises, naming the first bad byte
        if header is None:
            raise FormatError("empty CSV file", path=path)
        width, row = len(header), 1
        if not any(c in raw for c in _SEPARATORS):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    data = np.loadtxt(path, delimiter=",", skiprows=1,
                                      comments=None, ndmin=2, encoding="utf-8")
            except (ValueError, UserWarning):
                pass
            else:
                if data.shape[1] == width:
                    return header, data
        reader = csv.reader(io.StringIO(_decode(raw, path), newline=""))
        next(reader)  # the header record, read above
        body = []
        for row, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != width:
                raise FormatError("ragged rows: row %d has %d cells, the "
                                  "header %d" % (row, len(cells), width),
                                  path=path)
            try:
                body.append(list(map(float, cells)))
            except ValueError:
                # walk the row again only to name the bad cell
                for cell in cells:
                    _parse_float(cell, "%s row %d" % (path, row))
                raise
    except csv.Error as exc:
        raise FormatError(str(exc), path="%s row %d" % (path, row + 1)) from None
    return header, np.array(body, dtype=np.float64).reshape(len(body), width)


def _load_target_samples(csv_path, grid):
    """Knot samples from CSV: header x,f1..fq then exactly N+1 rows."""
    header, data = _read_csv(csv_path)
    if len(header) < 2 or header[0].strip() != "x":
        raise FormatError("expected header x,f1,...", path=csv_path)
    if len(data) != grid.n + 1:
        raise UsageError(
            "target CSV must supply exactly the N+1 knot values "
            "(%d rows for N=%d)" % (len(data), grid.n)
        )
    # written so that a NaN x fails too
    if not np.all(np.abs(data[:, 0] - grid.knots) <= 1e-9):
        raise UsageError("CSV x column does not match the knots of N=%d" % grid.n)
    return TargetSamples(grid, data[:, 1:])


def _resolve_samples(args, grid):
    if getattr(args, "csv", None):
        if getattr(args, "target", None):
            raise UsageError("give either --target or --csv, not both")
        return _load_target_samples(args.csv, grid)
    if getattr(args, "target", None):
        return TargetSamples.from_function(grid, get_target(args.target).fn)
    raise UsageError("a target is required: --target NAME or --csv FILE")


def _parse_grid_spec(spec):
    """--grid accepts a point count or an explicit comma list of x values."""
    spec = spec.strip()
    if "," in spec or "." in spec:
        toks = [t for t in spec.split(",") if t.strip()]
        if not toks:
            raise UsageError("empty evaluation grid")
        return np.asarray([_parse_float(t, "--grid") for t in toks])
    try:
        count = int(spec)
    except ValueError:
        raise UsageError("--grid must be an integer or a comma list") from None
    if count < 1:
        raise UsageError("evaluation grid is empty")
    return uniform_grid(count) if count > 1 else np.array([0.0])


def _write_csv(stream, header, rows):
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_repr_num(v) for v in row) + "\n")


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="")


def cmd_build(args):
    grid = KnotGrid.uniform(args.n)
    samples = _resolve_samples(args, grid)
    net = build_network(args.method, samples, args.slope)
    with _open_out(args.out) as fh:
        fh.write(save_model(net))
    print(
        "built %s n=%d: %d neurons, %d output(s) -> %s"
        % (args.method, args.n, net.width, net.out_dim, args.out)
    )
    return 0


def cmd_eval(args):
    net = load_model(_read_text(args.model))
    xs = _parse_grid_spec(args.grid)
    ys = forward_grid(net, xs)
    header = ["x"] + ["y%d" % (k + 1) for k in range(net.out_dim)]
    rows = ([x] + list(row) for x, row in zip(xs, ys))
    if args.out:
        with _open_out(args.out) as fh:
            _write_csv(fh, header, rows)
    else:
        _write_csv(sys.stdout, header, rows)
    return 0


def cmd_verify(args):
    grid = KnotGrid.uniform(args.n)
    samples = _resolve_samples(args, grid)
    net = build_network(args.method, samples, args.slope)
    model = matching_oracle(args.method, samples, args.slope)
    report = verify_equivalence(net, model, grid_size=args.grid, tol=args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(
        "%s %s n=%d: max deviation %.6e at x=%s (tol %g, grid %d)"
        % (
            status,
            args.method,
            args.n,
            report.max_deviation,
            _repr_num(report.worst_x),
            report.tol,
            report.grid_size,
        )
    )
    return 0 if report.passed else 1


def cmd_convergence(args):
    try:
        n_values = [int(t) for t in args.n_list.split(",") if t.strip()]
    except ValueError:
        raise UsageError("--n-list must be a comma list of integers") from None
    report = estimate_order(
        args.method, args.target, n_values, grid_size=args.grid, slope=args.slope
    )
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    with _open_out(csv_path) as fh:
        fh.write("n,h,sup_error,l2_error\n")
        for n, sup, l2 in zip(report.n_values, report.sup_errors, report.l2_errors):
            fh.write(
                "%d,%s,%s,%s\n" % (n, _repr_num(1.0 / n), _repr_num(sup), _repr_num(l2))
            )
    summary = {
        "method": report.method,
        "target": args.target,
        "n_values": list(report.n_values),
        "fitted_order": None if report.zero_error else report.fitted_order,
        "local_orders": [o if math.isfinite(o) else None
                         for o in report.local_orders],
        "r_squared": None if report.zero_error else report.r_squared,
        "zero_error": report.zero_error,
    }
    with _open_out(json_path) as fh:
        fh.write(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    if report.zero_error:
        print("zero error: target reproduced exactly, no order fitted")
    else:
        print(
            "fitted order %.4f (r^2 %.6f) over N=%s"
            % (report.fitted_order, report.r_squared, list(report.n_values))
        )
    print("wrote %s and %s" % (csv_path, json_path))
    return 0


def cmd_fit_kernel(args):
    grid = KnotGrid.uniform(args.n)
    # every kernel refuses a slope outside [0, 0.75], as every method does
    solve_cubic_coefficients(args.slope)
    kernel = (KernelKind.cubic_bump(args.slope) if args.kernel == "cubic"
              else KernelKind(args.kernel))
    header, data = _read_csv(args.csv)
    if len(header) != 2 or header[0].strip() != "x":
        raise FormatError("expected header x,y", path=args.csv)
    fit = fit_kernel_weights(data, kernel, grid)
    doc = {
        "kernel": args.kernel,
        "n": args.n,
        "omega": [float(w) for w in fit.omega],
        "rms_residual": fit.rms_residual,
    }
    with _open_out(args.out) as fh:
        fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    print(
        "fit %d kernel weights, rms residual %.6e -> %s"
        % (len(fit.omega), fit.rms_residual, args.out)
    )
    return 0


def cmd_info(args):
    print("pwmlp %s" % __version__)
    print("construction methods (hidden-layer width for N subintervals):")
    print("  constant      N step neurons")
    print("  linear-relu   4(N+1) ReLU neurons")
    print("  linear-ramp   2(N+1) ramp neurons")
    print("  cubic         2(N+1) cubic neurons, closed-form coupling solve")
    print("  cubic-spaced  N+2 cubic neurons, N even")
    print("kernels: box, triangle, cubic (bump; --slope sets the inflection slope)")
    print("builtin targets:")
    for name in sorted(TARGETS):
        print("  %-8s %s" % (name, TARGETS[name].description))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pwmlp",
        description="Construct exact piecewise-polynomial MLPs and verify "
        "them against reference models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_opts(p):
        p.add_argument("--target", choices=sorted(TARGETS), help="builtin target")
        p.add_argument("--csv", help="CSV with the N+1 knot samples (x,f1,...)")

    p = sub.add_parser("build", help="construct a network and save it as JSON")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n", required=True, type=int, help="number of subintervals")
    add_target_opts(p)
    p.add_argument("--slope", type=float, default=DEFAULT_SLOPE,
                   help="cubic inflection slope in [0, 0.75]")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("eval", help="evaluate a saved model, CSV to stdout")
    p.add_argument("model", help="model JSON path")
    p.add_argument("--grid", required=True,
                   help="point count, or comma list of x values")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("verify",
                       help="build network and reference model, compare pointwise")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n", required=True, type=int)
    add_target_opts(p)
    p.add_argument("--slope", type=float, default=DEFAULT_SLOPE)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--grid", type=int, default=10001)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("convergence", help="error sweep over N, fit the order")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--target", required=True, choices=sorted(TARGETS))
    p.add_argument("--n-list", required=True, help="comma list, e.g. 16,32,64,128")
    p.add_argument("--grid", type=int, default=10001)
    p.add_argument("--slope", type=float, default=DEFAULT_SLOPE)
    p.add_argument("--out", required=True, help="output prefix (.csv/.json)")
    p.set_defaults(handler=cmd_convergence)

    p = sub.add_parser("fit-kernel",
                       help="least-squares kernel weights from dense samples")
    p.add_argument("kernel", choices=KERNEL_CHOICES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--csv", required=True, help="dense samples CSV (x,y)")
    p.add_argument("--slope", type=float, default=DEFAULT_SLOPE)
    p.add_argument("--out", required=True, help="JSON output path")
    p.set_defaults(handler=cmd_fit_kernel)

    p = sub.add_parser("info", help="list methods, kernels, and targets")
    p.set_defaults(handler=cmd_info)

    return parser


def main(argv=None):
    print("pwmlp %s" % __version__, file=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (UsageError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
