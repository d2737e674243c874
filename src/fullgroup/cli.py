"""Batch command-line front end.

Subcommands synthesize witnesses and certificates, verify certificate
files, and run the randomized self-test suites.  Every command but
`verify` leaves through `_emit`: it writes its JSON artifact to --out
first, then prints a short human-readable summary and either where the
artifact went or the artifact itself, so a failed write prints nothing
but its error.  `verify` prints one PASS or FAIL line.  Each command
returns its exit code: 0 success, 1 precondition violation, 2 malformed
input or an i/o error, 3 verification failure, 4 internal error (a
failed postcondition or an unexpected exception, reported on one line).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import reduce

from .backends import compare_clopen, source_range
from .certificates import (Environment, certificate_to_dict, commutator_in_normal_closure,
                           load_certificate, product_to_dict,
                           split_nontrivial_support, verify_certificate)
from .clopen import MAX_WORD_DEPTH
from .decompose import decompose_small_support
from .elements import commutator, compose, identity, image_of_clopen, support
from .encoding import (encode_artifact, format_bisection, format_clopen, format_element,
                       parse_backend, parse_clopen, parse_element)
from .errors import MalformedInput, PreconditionError
from .selftest import SUITES, RunConfig, run_selftest
from .transfers import (exact_swap_involution, full_group_transfer,
                        commutator_transfer, gw_intertwining)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_MALFORMED = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


def _emit(artifact: dict, summary: list[str], out_path: str | None,
          noun: str = "artifact") -> None:
    """Encode the artifact (`encode_artifact`) and write it to `out_path`,
    if given, before anything is printed; then print the summary and
    either where the artifact went or its text."""
    text = encode_artifact(artifact)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    for line in summary:
        print(line)
    if out_path:
        print(f"{noun} written to {out_path}")
    else:
        print(text, end="")


def _set_pair(args):
    return parse_backend(args.backend), parse_clopen(args.A), parse_clopen(args.B)


def _cmd_compare(args) -> None:
    backend, A, B = _set_pair(args)
    witness = compare_clopen(backend, A, B)
    src, dst = source_range(witness)
    _emit({"command": "compare",
           "backend": backend.tag,
           "input": {"A": format_clopen(A), "B": format_clopen(B)},
           "witness": format_bisection(witness),
           "source": format_clopen(src),
           "range": format_clopen(dst)},
          [f"compare {format_clopen(A)} -> {format_clopen(B)}",
           f"  witness  {format_bisection(witness)}",
           f"  source   {format_clopen(src)}",
           f"  range    {format_clopen(dst)}"],
          args.out)


def _cmd_transfer(args) -> None:
    backend, A, B = _set_pair(args)
    if args.commutator:
        result = commutator_transfer(backend, A, B)
    else:
        result = full_group_transfer(backend, A, B)
    elem = result.element
    _emit({"command": "transfer",
           "backend": backend.tag,
           "commutator": bool(args.commutator),
           "input": {"A": format_clopen(A), "B": format_clopen(B)},
           "element": format_element(elem),
           "postcondition_tag": result.postcondition_tag,
           "image": format_clopen(image_of_clopen(elem, A)),
           "support": format_clopen(support(elem))},
          [f"transfer {format_clopen(A)} -> {format_clopen(B)}"
           + (" (commutator)" if args.commutator else ""),
           f"  element  {format_element(elem)}",
           f"  tag      {result.postcondition_tag}"],
          args.out)


def _cmd_swap(args) -> None:
    backend, A, B = _set_pair(args)
    elem = exact_swap_involution(backend, A, B)
    _emit({"command": "swap",
           "backend": backend.tag,
           "input": {"A": format_clopen(A), "B": format_clopen(B)},
           "element": format_element(elem),
           "support": format_clopen(support(elem))},
          [f"swap {format_clopen(A)} <-> {format_clopen(B)}",
           f"  element  {format_element(elem)}"],
          args.out)


def _cmd_gw(args) -> None:
    backend, A, B = _set_pair(args)
    state = gw_intertwining(backend, A, B, args.rounds)
    _emit({"command": "gw",
           "backend": backend.tag,
           "input": {"A": format_clopen(A), "B": format_clopen(B)},
           "rounds": state.round,
           "partial": format_element(state.partial),
           "residual_a": format_clopen(state.residual_a),
           "residual_b": format_clopen(state.residual_b),
           "anchor_a": str(state.anchor_a),
           "anchor_b": str(state.anchor_b)},
          [f"gw {format_clopen(A)} <-> {format_clopen(B)} rounds={state.round}",
           f"  residual_a {format_clopen(state.residual_a)}",
           f"  residual_b {format_clopen(state.residual_b)}"],
          args.out)


# Fraction's own grammar without the `_` separators and surrounding
# whitespace it also takes, and with the ASCII digits only
_EPS_RE = re.compile(r"[-+]?(?:[0-9]+/[0-9]+|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)")


def _parse_eps(text: str) -> Fraction:
    """An exact rational in ASCII digits (1/8, 0.125, 125e-3).  Its decimal
    exponent is at most MAX_WORD_DEPTH in size, so no power of ten longer
    than that is built: 10^-MAX_WORD_DEPTH is below the measure of every
    cylinder a word can name."""
    _, e, exponent = text.lower().partition("e")
    try:
        if not _EPS_RE.fullmatch(text):
            raise ValueError("not a rational in ASCII digits 0-9, such as 1/8, "
                             "0.125 or 125e-3")
        if e and abs(int(exponent)) > MAX_WORD_DEPTH:
            raise ValueError(f"decimal exponent over the limit of {MAX_WORD_DEPTH}")
        return Fraction(text)
    except ValueError as exc:
        raise MalformedInput(f"bad epsilon {text!r}: {exc}") from exc
    except ZeroDivisionError:
        raise MalformedInput(f"bad epsilon {text!r}: zero denominator") from None


def _cmd_decompose(args) -> None:
    elem = parse_element(args.elem)
    eps = _parse_eps(args.eps) if args.eps else None
    result = decompose_small_support(elem, eps)
    product = reduce(compose, result.factors, identity(elem.backend))
    ok = product == elem
    _emit({"command": "decompose",
           "backend": elem.backend.tag,
           "input": format_element(elem),
           "epsilon": str(result.epsilon) if result.epsilon is not None else None,
           "factors": [format_element(f) for f in result.factors],
           "bounds": [format_clopen(b) for b in result.bounds],
           "reconstructs": ok},
          [f"decompose {format_element(elem)}",
           f"  factors {len(result.factors)}  reconstructs={ok}"],
          args.out)


def _cmd_split(args) -> None:
    elem = parse_element(args.elem)
    result = split_nontrivial_support(elem)
    _emit({"command": "split",
           "backend": elem.backend.tag,
           "input": format_element(elem),
           "tau1": format_element(result.tau1),
           "tau2": format_element(result.tau2),
           "certificate": product_to_dict(result.certificate, result.environment),
           "trace": result.trace},
          [f"split {format_element(elem)}",
           f"  tau1 {format_element(result.tau1)}",
           f"  tau2 {format_element(result.tau2)}"],
          args.out)


def _cmd_certify(args) -> None:
    tau0 = parse_element(args.tau0)
    alpha = parse_element(args.alpha)
    beta = parse_element(args.beta)
    env = Environment(tau0.backend, {"tau0": tau0, "alpha": alpha, "beta": beta})
    trace: dict = {}
    cert = commutator_in_normal_closure("alpha", "beta", "tau0", env, trace)
    target = commutator(alpha, beta)[0]
    _emit(certificate_to_dict(cert, env, target, trace),
          [f"certify [alpha, beta] in normal closure of tau0 ({tau0.backend.tag})",
           f"  factors {len(cert.factors)}"],
          args.out, "certificate")


def _cmd_verify(args) -> int:
    try:
        with open(args.certfile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"certificate is not UTF-8 text: {exc}") from exc
    cert, env, target = load_certificate(text)
    ok = verify_certificate(cert, env, target)
    print(f"verify {args.certfile}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_selftest(args) -> int:
    backend = parse_backend(args.backend)
    config = RunConfig(backend=backend, seed=args.seed, max_depth=args.max_depth,
                       trial_count=args.trials)
    report = run_selftest(args.suite, config)
    summary = [f"selftest {args.suite} backend={backend.tag} seed={args.seed} "
               f"trials={args.trials}"]
    for prop in report["properties"]:
        status = "PASS" if prop["failures"] == 0 else "FAIL"
        summary.append(f"  {status}  {prop['name']}: "
                       f"{prop['passes']} passed, {prop['failures']} failed")
    _emit(report, summary, args.out)
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def _ascii_int(text: str) -> int:
    """An integer option: ASCII digits after an optional minus sign, where
    `int` also takes other Unicode digits, `_` separators and spaces."""
    try:
        if re.fullmatch(r"-?[0-9]+", text):
            return int(text)
    except ValueError:  # over the interpreter's integer-conversion limit
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _ParserExit(Exception):
    """argparse's exit status: 0 after --help, 2 after a usage error."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that hands its exit status back to `main`."""

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise _ParserExit(status)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fullgroup",
        description="Exact witness synthesis and certificate checking for "
                    "full groups of Cantor-space groupoids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p):
        p.add_argument("--backend", default="odo2",
                       help="backend tag, e.g. odo2 or shift3 (default odo2)")

    def add_out(p):
        p.add_argument("--out", default=None, help="write the JSON artifact here")

    for name, func, text, options in (
            ("compare", _cmd_compare, "emit a bisection witness for A -> B", {}),
            ("transfer", _cmd_transfer, "synthesize a full-group transfer element",
             {"--commutator": dict(action="store_true",
                                   help="synthesize a derived-subgroup transfer instead")}),
            ("swap", _cmd_swap, "exact swap involution between A and B", {}),
            ("gw", _cmd_gw, "truncated anchored intertwining",
             {"--rounds": dict(type=_ascii_int, required=True)})):
        p = sub.add_parser(name, help=text)
        p.add_argument("A")
        p.add_argument("B")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        add_backend(p)
        add_out(p)
        p.set_defaults(func=func)

    p = sub.add_parser("decompose", help="small-support decomposition of an element")
    p.add_argument("elem")
    p.add_argument("--eps", default=None, help="exact rational bound, e.g. 1/8")
    add_out(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("split", help="split an element into two proper-support factors")
    p.add_argument("elem")
    add_out(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("certify",
                       help="certificate putting [alpha, beta] in the normal closure of tau0")
    p.add_argument("--tau0", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("certfile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run a randomized property suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(SUITES)))
    p.add_argument("--seed", type=_ascii_int, default=0)
    p.add_argument("--trials", type=_ascii_int, default=50)
    p.add_argument("--max-depth", type=_ascii_int, default=4, dest="max_depth")
    add_backend(p)
    add_out(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _ParserExit as stop:
        return stop.args[0]
    try:
        return args.func(args) or EXIT_OK
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:  # a PostconditionError or another bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
