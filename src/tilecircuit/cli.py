"""Command-line surface.

Exit codes separate tooling from mathematics: 0 means the requested check
or computation succeeded, 1 means a well-posed mathematical failure (an
invalid tiling, an unsizable system, a FAIL verdict), and 2 means the tool
could not even get started: usage errors, unreadable files, and the
``InputError`` family (malformed or out-of-range input, which includes
malformed dissection, ladder and netlist files).  Human-readable output
goes to stdout and diagnostics to stderr; ``--json`` switches stdout to a
machine-readable object carrying the same exact scalars.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algcheck import lfs_condition3, parse_intpoly
from .circuit import CircuitError, parse_netlist, format_netlist
from .correspondence import (
    CorrespondenceError,
    LadderError,
    certify_equivalence,
    cf_eval,
    circuit_of_dissection,
    infer_ratio,
    ladder_dissection,
    load_ladder,
    theorem1_certificate,
)
from .dissection import (
    DissectionError,
    dehn_check,
    dump_dissection,
    load_dissection,
    render_svg,
    solve_sizes,
    validate_geometric,
)
from .fields import InputError, format_scalar, one_like, parse_quadext

PASS, MATH_FAIL, USAGE_FAIL = 0, 1, 2


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, payload: dict, lines) -> None:
        if self.as_json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_validate(args, out: _Output) -> int:
    d = load_dissection(_read(args.dissection))
    report = validate_geometric(d)
    out.emit(
        {"ok": report.ok, "issues": list(report.issues)},
        ["valid tiling" if report.ok else "invalid tiling:"]
        + [f"  {issue}" for issue in report.issues],
    )
    return PASS if report.ok else MATH_FAIL


def _cmd_solve(args, out: _Output) -> int:
    d = load_dissection(_read(args.dissection))
    result = solve_sizes(d)
    if args.out:
        _write(args.out, dump_dissection(result.sized))
    x = result.ratio
    payload = {
        "x": format_scalar(x),
        "1/x": format_scalar(one_like(x) / x),
        "sides": {
            str(t.tid): format_scalar(t.rect[3]) for t in result.sized.tiles
        },
    }
    lines = [
        f"x = {payload['x']}",
        f"1/x = {payload['1/x']}",
    ] + [
        f"tile {t.tid}: {format_scalar(t.rect[2])} x {format_scalar(t.rect[3])}"
        for t in result.sized.tiles
    ]
    out.emit(payload, lines)
    return PASS


def _cmd_dehn_check(args, out: _Output) -> int:
    d = load_dissection(_read(args.dissection))
    report = dehn_check(d)
    payload = {
        "all_squares": report.all_squares,
        "non_square_tiles": list(report.non_square_tiles),
        "ratio": format_scalar(report.ratio),
        "ratio_is_rational": report.ratio_is_rational,
        "ok": report.ok,
    }
    if report.all_squares:
        lines = [f"all tiles are squares; ratio = {payload['ratio']} "
                 f"({'rational' if report.ratio_is_rational else 'irrational'})"]
    else:
        ids = ", ".join(str(t) for t in report.non_square_tiles)
        lines = [f"rejected: tiles are not squares (tiles {ids})"]
    out.emit(payload, lines)
    return PASS if report.ok else MATH_FAIL


def _cmd_to_circuit(args, out: _Output) -> int:
    d = load_dissection(_read(args.dissection))
    net = circuit_of_dissection(d)
    text = format_netlist(net)
    if args.out:
        _write(args.out, text)
        out.emit({"netlist": text, "written": args.out}, [f"wrote {args.out}"])
    else:
        out.emit({"netlist": text}, [text.rstrip("\n")])
    return PASS


def _cmd_resistance(args, out: _Output) -> int:
    net = parse_netlist(_read(args.netlist), symbolic=args.symbolic)
    if args.symbolic:
        from .circuit import symbolic_resistance

        value = symbolic_resistance(net)
        text = value.format()
    else:
        from .circuit import resistance

        value = resistance(net)
        text = format_scalar(value)
    out.emit({"resistance": text}, [text])
    return PASS


def _cmd_equiv_check(args, out: _Output) -> int:
    d = load_dissection(_read(args.dissection))
    report = certify_equivalence(d)
    payload = {
        "ok": report.ok,
        "tiles": {
            str(t.tile): {
                "side": format_scalar(t.vertical_side),
                "current": format_scalar(t.current),
            }
            for t in report.tiles
        },
        "battery_current": format_scalar(report.battery_current),
        "resistance": format_scalar(report.resistance),
        "big_ratio": format_scalar(report.big_ratio),
        "mismatches": list(report.mismatches()),
    }
    if report.ok:
        lines = [
            "dissection and circuit agree exactly",
            f"resistance = big ratio = {payload['resistance']}",
        ]
    else:
        lines = ["mismatch:"] + [f"  {m}" for m in report.mismatches()]
    out.emit(payload, lines)
    return PASS if report.ok else MATH_FAIL


def _cmd_theorem1(args, out: _Output) -> int:
    d = load_dissection(_read(args.dissection))
    ratio = infer_ratio(d)
    cert = theorem1_certificate(d, ratio)
    value = cert.eval(ratio)
    payload = {
        "F": cert.format("x"),
        "R": format_scalar(ratio),
        "F(R)": format_scalar(value),
    }
    out.emit(
        payload,
        [
            f"F(x) = {payload['F']}",
            f"R = {payload['R']}",
            f"F(R) = {payload['F(R)']}",
        ],
    )
    return PASS


def _cmd_lfs_cond3(args, out: _Output) -> int:
    if args.poly is not None:
        verdict = lfs_condition3(parse_intpoly(args.poly))
    else:
        elem = parse_quadext(args.elem, args.d)
        verdict = lfs_condition3(elem)
    payload = {
        "verdict": "PASS" if verdict.passed else "FAIL",
        "minimal_polynomial": verdict.minimal_polynomial.format("x"),
        "caveat": verdict.caveat,
    }
    lines = [f"{payload['verdict']}  (polynomial: {payload['minimal_polynomial']})"]
    if verdict.caveat:
        payload["caveat_reason"] = verdict.caveat_reason
        lines.append(f"caveat: {verdict.caveat_reason}")
    out.emit(payload, lines)
    return PASS if verdict.passed else MATH_FAIL


def _cmd_lfs_eval_cf(args, out: _Output) -> int:
    spec = load_ladder(_read(args.ladder))
    value = cf_eval(spec)
    ok = value == one_like(value)
    payload = {"value": format_scalar(value), "is_one": ok}
    out.emit(payload, [f"continued fraction = {payload['value']}"
                       + ("" if ok else " (not 1)")])
    return PASS if ok else MATH_FAIL


def _cmd_lfs_build(args, out: _Output) -> int:
    spec = load_ladder(_read(args.ladder))
    d = ladder_dissection(spec)
    _write(args.out, dump_dissection(d))
    out.emit(
        {"tiles": len(d.tiles), "written": args.out},
        [f"wrote {args.out} ({len(d.tiles)} tiles)"],
    )
    return PASS


def _cmd_render(args, out: _Output) -> int:
    d = solve_sizes(load_dissection(_read(args.dissection))).sized
    svg = render_svg(d)
    _write(args.output, svg)
    out.emit({"written": args.output}, [f"wrote {args.output}"])
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilecircuit",
        description="Exact rectangle-dissection and resistor-network toolkit",
    )
    parser.add_argument("--json", action="store_true", help="machine output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an exact tiling")
    p.add_argument("dissection")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="size a sketched dissection exactly")
    p.add_argument("dissection")
    p.add_argument("--out", help="write the sized dissection JSON here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dehn-check", help="all squares and rational ratio?")
    p.add_argument("dissection")
    p.set_defaults(func=_cmd_dehn_check)

    p = sub.add_parser("to-circuit", help="emit the dual resistor network")
    p.add_argument("dissection")
    p.add_argument("--out", help="write netlist text here")
    p.set_defaults(func=_cmd_to_circuit)

    p = sub.add_parser("resistance", help="total resistance of a netlist")
    p.add_argument("netlist")
    p.add_argument("--symbolic", action="store_true",
                   help="treat t as a symbolic resistance")
    p.set_defaults(func=_cmd_resistance)

    p = sub.add_parser("equiv-check", help="sides = currents, ratio = resistance")
    p.add_argument("dissection")
    p.set_defaults(func=_cmd_equiv_check)

    p = sub.add_parser("theorem1", help="integer polynomial vanishing at the ratio")
    p.add_argument("dissection")
    p.set_defaults(func=_cmd_theorem1)

    lfs = sub.add_parser("lfs", help="similar-rectangle tiling criteria")
    lfs_sub = lfs.add_subparsers(dest="lfs_command", required=True)

    p = lfs_sub.add_parser("cond3", help="positive real part of all conjugates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--elem", help="scalar such as '1 + sqrt(2)'")
    group.add_argument("--poly", help="integer polynomial such as 'x^2-2x-1'")
    p.add_argument("--d", type=int, help="radicand when --elem is rational")
    p.set_defaults(func=_cmd_lfs_cond3)

    p = lfs_sub.add_parser("eval-cf", help="evaluate a ladder continued fraction")
    p.add_argument("ladder")
    p.set_defaults(func=_cmd_lfs_eval_cf)

    p = lfs_sub.add_parser("build", help="build the ladder dissection")
    p.add_argument("ladder")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lfs_build)

    p = sub.add_parser("render", help="render a sized dissection to SVG")
    p.add_argument("dissection")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses: built once per process, on first use.

    argparse keeps no state between parses, and ``build_parser`` hands
    every other caller a parser of its own, so sharing this one changes
    no output.
    """
    return build_parser()


# Options whose value may start with '-', such as --poly "-x+5".
_SIGNED_VALUE_OPTIONS = ("--poly", "--elem")


def _attach_signed_values(argv) -> list:
    """Write ``--poly -x+5`` as ``--poly=-x+5``, which argparse accepts.

    argparse takes a value such as "-x+5" for an unknown option and leaves
    --poly without its argument.  A value that argparse would read as a
    value anyway keeps its meaning, and "-h" and long options stay options.
    Nothing after "--" is touched.
    """
    out = []
    for arg in argv:
        option = out[-1] if out else None
        if (option in _SIGNED_VALUE_OPTIONS and arg.startswith("-")
                and not arg.startswith("--") and arg != "-h" and "--" not in out):
            out[-1] = f"{option}={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_FAIL if exc.code else PASS
    out = _Output(args.json)
    try:
        return args.func(args, out)
    except (InputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_FAIL
    except (DissectionError, CircuitError, CorrespondenceError, LadderError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
