"""Command-line front end.

Exit codes: 0 success, 2 usage or parse error, 3 definitive nonexistence
(search-local), 4 resource budget exceeded, 5 validation failure.
Output is deterministic; `--format records` emits one key=value line per
fact for scripting.
"""

from __future__ import annotations

import argparse
import sys

from . import cfk
from .complexes import Complex, dualize
from .errors import CfkParseError, ResourceError, StructuralError
from .homology import hfk_minus, torsion_order
from .knotlib import build_cable, build_figure_eight, build_unknot
from .localequiv import (DEFAULT_BUDGET, LocalSearchSpec,
                         concordance_unknotting_bound, connected_complex,
                         search_local_map)
from .morphism import IotaData, derivative_maps, enumerate_almost_iotas

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONEXISTENCE = 3
EXIT_RESOURCE = 4
EXIT_INVALID = 5


def _load(path: str) -> cfk.CfkFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise CfkParseError(f"cannot read {path}: {err.strerror}", 0) from None
    except UnicodeDecodeError:
        raise CfkParseError(f"cannot read {path}: not UTF-8 text", 0) from None
    return cfk.parse_cfk(text)


def count(text: str) -> int:
    """A --budget value: a number of unknowns, so never negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line on stderr, exit code 2."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _require_valid(C: Complex) -> None:
    report = C.validate()
    if not report.ok:
        for msg in report.messages:
            print(f"invalid: {msg}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _select_iota(cands: list[IotaData], index: int) -> IotaData:
    if not cands:
        print("no almost involution exists for this complex", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    if not 0 <= index < len(cands):
        print(f"involution index {index} out of range: this complex has "
              f"{len(cands)} completions", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return cands[index]


def _pick_iota(entry: cfk.CfkFile, index: int | None) -> IotaData:
    if entry.iota is not None and index is None:
        return entry.iota
    return _select_iota(enumerate_almost_iotas(entry.complex), index or 0)


def cmd_build(args) -> int:
    if args.knot == "unknot":
        C = build_unknot()
    elif args.knot == "fig8":
        C = build_figure_eight()
    elif args.knot.startswith("cable:"):
        try:
            C = build_cable(int(args.knot.split(":", 1)[1]))
        except ValueError:
            print(f"bad knot {args.knot!r}: cable:<n> needs an integer "
                  f"n >= 2", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(f"unknown knot {args.knot!r}", file=sys.stderr)
        return EXIT_USAGE
    _write_or_print(cfk.render_cfk(C), args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    entry = _load(args.file)
    report = entry.complex.validate()
    checks = [
        ("d_squared", report.d_squared),
        ("grading_law", report.grading_law),
        ("reduced", report.reduced),
        ("grading_symmetric", report.grading_symmetric),
    ]
    if args.format == "records":
        for name, okay in checks:
            print(f"check.{name}={'pass' if okay else 'fail'}")
        print(f"ok={'true' if report.ok else 'false'}")
    else:
        for name, okay in checks:
            print(f"{name}: {'pass' if okay else 'fail'}")
        for msg in report.messages:
            print(f"note: {msg}")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_homology(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    d = hfk_minus(entry.complex)
    if args.format == "records":
        print(f"tower.count={d.tower_count}")
        for k, g in enumerate(d.tower_gradings):
            print(f"tower.{k}.gr={g}")
        for k, (order, g) in enumerate(d.torsion):
            print(f"torsion.{k}.order={order}")
            print(f"torsion.{k}.gr={g}")
        print(f"torsion_order={torsion_order(d)}")
        print(f"locality_rank={d.tower_count}")
    else:
        print(d.render())
    return EXIT_OK


def cmd_torsion_order(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    value = torsion_order(hfk_minus(entry.complex))
    if args.format == "records":
        print(f"torsion_order={value}")
    else:
        print(value)
    return EXIT_OK


def cmd_phi_psi(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    phi, psi = derivative_maps(entry.complex)
    text = cfk.render_map_file(phi, "Phi") + cfk.render_map_file(psi, "Psi")
    _write_or_print(text, args.output)
    return EXIT_OK


def cmd_tensor(args) -> int:
    from .tensorsum import product_iota, tensor

    a = _load(args.file_a)
    b = _load(args.file_b)
    _require_valid(a.complex)
    _require_valid(b.complex)
    T = tensor(a.complex, b.complex)
    iota = None
    if a.iota is not None and b.iota is not None:
        iota = product_iota(a.complex, a.iota, b.complex, b.iota,
                            args.variant, T)
    _write_or_print(cfk.render_cfk(T, iota), args.output)
    return EXIT_OK


def cmd_dual(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    _write_or_print(cfk.render_cfk(dualize(entry.complex)), args.output)
    return EXIT_OK


def cmd_iota_enum(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    cands = enumerate_almost_iotas(entry.complex)
    if args.output is not None:
        iota = _select_iota(cands, args.index or 0)
        _write_or_print(cfk.render_cfk(entry.complex, iota), args.output)
        return EXIT_OK
    if args.format == "records":
        print(f"count={len(cands)}")
        for k, data in enumerate(cands):
            for s, g in enumerate(entry.complex.names()):
                targets = "+".join(t for t, _, _ in data.map.row_terms(s))
                if targets:
                    print(f"candidate.{k}.{g}={targets}")
    else:
        for k, data in enumerate(cands):
            print(f"# candidate {k}")
            print(data.render())
    return EXIT_OK


def cmd_search_local(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    _require_valid(a.complex)
    _require_valid(b.complex)
    spec = LocalSearchSpec((a.complex, a.iota), (b.complex, b.iota),
                           budget=args.budget)
    cert = search_local_map(spec)
    if cert.exists:
        _write_or_print(cfk.render_map_file(cert.found, "local"), args.output)
        if args.format == "records":
            print("exists=true")
        return EXIT_OK
    token = cert.token
    if args.format == "records":
        print("exists=false")
        print(f"token.unknowns={token.unknowns}")
        print(f"token.equations={token.equations}")
        print(f"token.iota_pairs={token.iota_pairs}")
    else:
        print(token.render())
    return EXIT_NONEXISTENCE


def cmd_connected(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    iota = _pick_iota(entry, args.iota_index)
    conn = connected_complex(entry.complex, iota, budget=args.budget)
    _write_or_print(cfk.render_cfk(conn), args.output)
    return EXIT_OK


def cmd_bound(args) -> int:
    entry = _load(args.file)
    _require_valid(entry.complex)
    iota = _pick_iota(entry, args.iota_index)
    value = concordance_unknotting_bound(entry.complex, iota,
                                         budget=args.budget)
    if args.format == "records":
        print(f"bound={value}")
    else:
        print(value)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="knotfloer",
        description="exact involutive bigraded complex calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("text", "records"),
                       default="text")

    p = sub.add_parser("build", help="write a library complex")
    p.add_argument("--knot", required=True,
                   help="unknot | fig8 | cable:<n>")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("validate", help="run the structural checks")
    p.add_argument("file")
    fmt(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="U-module homology of C/(V)")
    p.add_argument("file")
    fmt(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("torsion-order", help="largest U-torsion order")
    p.add_argument("file")
    fmt(p)
    p.set_defaults(func=cmd_torsion_order)

    p = sub.add_parser("phi-psi", help="derivative chain maps")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_phi_psi)

    p = sub.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--variant", type=int, choices=(1, 2), default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("dual", help="dual complex")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("iota-enum", help="enumerate almost involutions")
    p.add_argument("file")
    p.add_argument("--index", type=int)
    p.add_argument("-o", "--output")
    fmt(p)
    p.set_defaults(func=cmd_iota_enum)

    p = sub.add_parser("search-local", help="decide local map existence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--budget", type=count, default=DEFAULT_BUDGET)
    p.add_argument("-o", "--output")
    fmt(p)
    p.set_defaults(func=cmd_search_local)

    p = sub.add_parser("connected", help="connected subcomplex")
    p.add_argument("file")
    p.add_argument("--iota-index", type=int)
    p.add_argument("--budget", type=count, default=DEFAULT_BUDGET)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_connected)

    p = sub.add_parser("bound", help="concordance unknotting bound")
    p.add_argument("file")
    p.add_argument("--iota-index", type=int)
    p.add_argument("--budget", type=count, default=DEFAULT_BUDGET)
    fmt(p)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CfkParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except StructuralError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
