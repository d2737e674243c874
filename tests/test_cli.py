"""CLI commands, artifacts, exit codes and determinism."""

import contextlib
import io
import json
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup import certificates, decompose, selftest, transfers
from fullgroup.backends import Odometer
from fullgroup.cli import main
from fullgroup.clopen import MAX_WORD_DEPTH, ClopenSet
from fullgroup.elements import identity
from fullgroup.encoding import parse_element
from fullgroup.errors import PostconditionError

from conftest import first_range_emptied, overlapping_pairing
from test_golden import INPUTS, certify_argv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def artifact_of(stdout: str) -> dict:
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    return json.loads("\n".join(lines[start:]))


class TestCompare:
    def test_witness_example(self, capsys, tmp_path):
        out_file = tmp_path / "witness.json"
        code, out, _ = run(capsys, "compare", "b2:{00}", "b2:{1}",
                           "--backend", "odo2", "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["witness"] == "odo2:[(00;+1)]"
        assert "odo2:[(00;+1)]" in out

    def test_precondition_exit_code(self, capsys):
        code, _, err = run(capsys, "compare", "b2:{0}", "b2:{10}",
                           "--backend", "odo2")
        assert code == 1
        assert "precondition" in err

    def test_malformed_exit_code(self, capsys):
        code, _, err = run(capsys, "compare", "b2:{7}", "b2:{1}",
                           "--backend", "odo2")
        assert code == 2
        assert "error" in err

    # only ASCII digits are digits: '²' passes str.isdigit, and '١' and
    # '٢' pass int() and the regular expression \d
    @pytest.mark.parametrize("argv", [
        ("b2:{²}", "b2:{1}"), ("b2:{0١}", "b2:{1}"), ("b٢:{0}", "b2:{1}"),
        ("b2:{0}", "b2:{1}", "--backend", "odo٢")], ids=["word", "digit", "base", "tag"])
    def test_non_ascii_digits_are_malformed(self, capsys, argv):
        code, out, err = run(capsys, "compare", *argv)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    # a base is read as the program writes it: 2 to 10, no leading zero
    @pytest.mark.parametrize("argv", [
        ("b02:{0}", "b2:{1}"), ("b2:{0}", "b2:{1}", "--backend", "odo02")],
        ids=["set", "tag"])
    def test_base_spellings_are_malformed(self, capsys, argv):
        code, out, err = run(capsys, "compare", *argv)
        assert code == 2 and not out
        assert err.startswith("error: bad ") and err.count("\n") == 1

    def test_base_mismatch(self, capsys):
        code, _, _ = run(capsys, "compare", "b3:{0}", "b3:{1}",
                         "--backend", "odo2")
        assert code == 2


class TestTransferSwapGw:
    def test_transfer(self, capsys):
        code, out, _ = run(capsys, "transfer", "b2:{00}", "b2:{1}",
                           "--backend", "odo2")
        assert code == 0
        data = artifact_of(out)
        assert data["postcondition_tag"] == "InvolutionSmallSupport"

    def test_transfer_commutator(self, capsys):
        code, out, _ = run(capsys, "transfer", "b2:{000}", "b2:{1}",
                           "--backend", "odo2", "--commutator")
        assert code == 0
        assert artifact_of(out)["postcondition_tag"] == "CommutatorCyclic"

    def test_swap(self, capsys):
        code, out, _ = run(capsys, "swap", "b2:{00}", "b2:{10}",
                           "--backend", "odo2")
        assert code == 0
        assert artifact_of(out)["element"].startswith("elem:odo2:")

    def test_swap_deep_words(self, capsys):
        zeros, ones = "0" * 1200, "1" * 1200
        code, out, err = run(capsys, "swap", f"b2:{{{zeros}}}", f"b2:{{{ones}}}",
                             "--backend", "odo2")
        assert code == 0
        assert "Traceback" not in err
        assert artifact_of(out)["element"].startswith("elem:odo2:")

    def test_swap_overdeep_words_are_refused(self, capsys):
        # refused at parse time, before any cylinder or piece is built
        zeros = "0" * 14400
        start = time.perf_counter()
        code, out, err = run(capsys, "swap", f"b2:{{{zeros}1}}", f"b2:{{{zeros}0}}",
                             "--backend", "odo2")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert not out
        assert err == f"error: word of depth 14401 is over the limit of {MAX_WORD_DEPTH}\n"

    def test_gw(self, capsys):
        code, out, _ = run(capsys, "gw", "b2:{00}", "b2:{10}",
                           "--backend", "odo2", "--rounds", "2")
        assert code == 0
        data = artifact_of(out)
        assert data["rounds"] == 2

    @pytest.mark.parametrize("argv, message", [
        (("swap", "b2:{0}", "b2:{ε}", "--backend", "shift2"),
         "exact swap needs both A\\B and B\\A nonempty"),
        (("gw", "b2:{0}", "b2:{10}", "--backend", "odo2", "--rounds", "2"),
         "intertwining needs exactly equal measures"),
        (("transfer", "b2:{ε}", "b2:{0}", "--backend", "shift2", "--commutator"),
         "transfer source must not be the whole space"),
        (("transfer", "b2:{0}", "b2:{}", "--backend", "shift2", "--commutator"),
         "transfer target must be nonempty"),
        (("gw", "b2:{00}", "b2:{10}", "--backend", "odo2", "--rounds", "-1"),
         "rounds must be nonnegative"),
    ], ids=["swap-inside", "gw-unequal", "transfer-whole-source", "transfer-empty-target",
            "gw-negative-rounds"])
    def test_precondition_exits(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"precondition violated: {message}\n"


class TestDecomposeSplit:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose",
                           "elem:odo2:[(0;+1),(1;-1)]", "--eps", "3/8")
        assert code == 0
        data = artifact_of(out)
        assert data["reconstructs"] is True
        assert len(data["factors"]) >= 1

    def test_decompose_shift_identity_ignores_eps(self, capsys):
        # the shift has no invariant measure: epsilon is null for every
        # element, the identity included
        code, out, _ = run(capsys, "decompose", "elem:shift2:[(ε>ε)]", "--eps", "1/4")
        assert code == 0
        assert artifact_of(out)["epsilon"] is None

    def test_decompose_bad_eps(self, capsys):
        code, _, _ = run(capsys, "decompose",
                         "elem:odo2:[(0;+1),(1;-1)]", "--eps", "x")
        assert code == 2

    @pytest.mark.parametrize("elem", ["elem:odo2:[(ε;+0)]", "elem:shift2:[(0>1),(1>0)]"])
    def test_decompose_nonpositive_eps(self, capsys, elem):
        code, out, err = run(capsys, "decompose", elem, "--eps=-1")
        assert code == 1 and not out
        assert err.count("\n") == 1 and "epsilon > 0" in err

    def test_split(self, capsys):
        code, out, _ = run(capsys, "split", "elem:shift2:[(0>1),(1>0)]")
        assert code == 0
        data = artifact_of(out)
        assert data["tau1"].startswith("elem:shift2:")
        assert data["certificate"]["generator"] == "tau"

    def test_split_identity_precondition(self, capsys):
        code, _, _ = run(capsys, "split", "elem:odo2:[(ε;+0)]")
        assert code == 1

    def test_junk_between_pieces_exit_code(self, capsys):
        code, out, err = run(capsys, "decompose",
                             "elem:odo2:[(0;+1)junk(1;-1)]", "--eps", "3/8")
        assert code == 2
        assert "error" in err and not out

    @pytest.mark.parametrize("elem, eps", [
        ("elem:odo2:[(0;+١),(1;-1)]", "1/8"), ("elem:odo2:[(0;+1),(1;-1)]", "١/8")],
        ids=["power", "eps"])
    def test_non_ascii_digits_are_malformed(self, capsys, elem, eps):
        code, out, err = run(capsys, "decompose", elem, "--eps", eps)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    # Fraction also takes `_` separators and surrounding whitespace, which
    # no other number of the CLI takes
    @pytest.mark.parametrize("eps", ["1_0/80", "1/8_0", " 1/8", "1/8 ", "\t1/8\n", "1e-1_0",
                                     "0.12_5", "1 /8"])
    def test_eps_separators_and_spaces_are_malformed(self, capsys, eps):
        code, out, err = run(capsys, "decompose", INPUTS["odo2"]["alpha"], "--eps", eps)
        assert code == 2 and not out
        assert err == (f"error: bad epsilon {eps!r}: not a rational in ASCII digits 0-9, "
                       "such as 1/8, 0.125 or 125e-3\n")

    @pytest.mark.parametrize("eps", ["1/0", "0/0"])
    def test_eps_zero_denominator_is_malformed(self, capsys, eps):
        code, out, err = run(capsys, "decompose", INPUTS["odo2"]["alpha"], "--eps", eps)
        assert code == 2 and not out
        assert err == f"error: bad epsilon {eps!r}: zero denominator\n"

    @pytest.mark.parametrize("eps, value", [
        ("1/8", "1/8"), ("0.125", "1/8"), ("125e-3", "1/8"), ("125E-3", "1/8"),
        ("+1/8", "1/8"), (".5", "1/2"), ("1.", "1"), ("2/16", "1/8")])
    def test_eps_forms_accepted(self, capsys, eps, value):
        code, out, _ = run(capsys, "decompose", INPUTS["odo2"]["alpha"], "--eps", eps)
        assert code == 0
        assert artifact_of(out)["epsilon"] == value

    def test_overlong_power_exit_code(self, capsys):
        # 5000 digits is over the interpreter's integer-conversion limit
        code, out, err = run(capsys, "decompose",
                             "elem:odo2:[(ε;+" + "1" * 5000 + ")]")
        assert code == 2
        assert "error: odometer power" in err and not out


ALPHA_ODO = "elem:odo2:[(00;+1),(01;+0),(10;-1),(11;+0)]"
BETA_ODO = "elem:odo2:[(00;+2),(01;-2),(10;+0),(11;+0)]"
# a certificate that verifies: the empty product is the identity
VALID_CERT = {"format_version": 1, "backend": "odo2", "generator": "tau0", "factors": [],
              "environment": {"tau0": "elem:odo2:[(ε;+1)]"},
              "target": "elem:odo2:[(ε;+0)]", "trace": {}}


def one_factor_cert(sign=1, exp=1) -> bytes:
    """tau0 conjugated by g = tau0, a certificate that verifies with the
    default sign and exponent."""
    return json.dumps({**VALID_CERT, "target": "elem:odo2:[(ε;+1)]",
                       "environment": {"tau0": "elem:odo2:[(ε;+1)]", "g": "elem:odo2:[(ε;+1)]"},
                       "factors": [{"conjugator": [["g", exp]], "sign": sign}]}).encode()


class TestCertifyVerify:
    def test_roundtrip(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, _, _ = run(capsys, "certify",
                         "--tau0", "elem:shift2:[(0>00),(10>01),(11>1)]",
                         "--alpha", "elem:shift2:[(00>01),(01>00),(1>1)]",
                         "--beta", "elem:shift2:[(0>0),(10>11),(11>10)]",
                         "--out", str(cert_file))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 0
        assert "PASS" in out

    def test_certify_nontrivial(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, _, _ = run(capsys, "certify",
                         "--tau0", "elem:odo2:[(ε;+1)]",
                         "--alpha", ALPHA_ODO,
                         "--beta", BETA_ODO,
                         "--out", str(cert_file))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 0

    def test_certify_across_backends_is_malformed(self, capsys):
        code, out, err = run(capsys, "certify",
                             "--tau0", "elem:odo2:[(ε;+1)]",
                             "--alpha", "elem:shift2:[(00>01),(01>00),(1>1)]",
                             "--beta", BETA_ODO)
        assert code == 2
        assert not out
        assert err == "error: element for 'alpha' is on backend shift2, expected odo2\n"

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        run(capsys, "certify",
            "--tau0", "elem:odo2:[(ε;+1)]",
            "--alpha", ALPHA_ODO,
            "--beta", BETA_ODO,
            "--out", str(cert_file))
        data = json.loads(cert_file.read_text())
        if data["factors"]:
            data["factors"][0]["sign"] *= -1
        cert_file.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert_file))
        assert code == 3
        assert "FAIL" in out

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/cert.json")
        assert code == 2

    @pytest.mark.parametrize("payload", [
        json.dumps({**VALID_CERT, "environment": [ALPHA_ODO]}).encode(),
        json.dumps({**VALID_CERT, "backend": 2}).encode(),
        json.dumps({**VALID_CERT, "environment": {"tau0": 5}}).encode(),
        json.dumps({**VALID_CERT, "target": 0}).encode(),
        b'{"format_version": 1, "backend": "odo\xff2"}',
        b"[" * 100000 + b"]" * 100000,
        # a sign, exponent or version is a JSON integer, never truncated
        *(one_factor_cert(sign=v) for v in (1.9, "1", True, 1.0)),
        one_factor_cert(sign=2).replace(b'"sign": 2', b'"sign": 1e400'),
        *(one_factor_cert(exp=v) for v in (1.9, "1", True, 1.0)),
        *(json.dumps({**VALID_CERT, "format_version": v}).encode() for v in (True, 1.0, "1")),
        # integers of the right type that a certificate still refuses
        *(one_factor_cert(sign=v) for v in (2, 0)),
        one_factor_cert(exp=2),
        one_factor_cert().replace(b'[["g", 1]]', b'[["", 1]]'),
        json.dumps({**VALID_CERT, "generator": ""}).encode(),
    ], ids=["environment-list", "backend-number", "element-number", "target-number",
            "not-utf8", "deep-nesting", "sign-fraction", "sign-string", "sign-bool",
            "sign-float", "sign-overflow", "exponent-fraction", "exponent-string",
            "exponent-bool", "exponent-float", "version-bool", "version-float",
            "version-string", "sign-2", "sign-0", "exponent-2", "empty-conjugator-name",
            "empty-generator"])
    def test_malformed_certificate_file(self, capsys, tmp_path, payload):
        cert_file = tmp_path / "cert.json"
        cert_file.write_bytes(payload)
        code, out, err = run(capsys, "verify", str(cert_file))
        assert code == 2
        assert not out
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("target", ["elem:odo3:[(ε;+0)]", "elem:shift2:[(ε>ε)]"])
    def test_target_on_another_backend_is_malformed(self, capsys, tmp_path, target):
        # like an environment element on the wrong backend, the target is
        # refused as input before anything is composed, not failed
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps({**VALID_CERT, "target": target}))
        code, out, err = run(capsys, "verify", str(cert_file))
        assert code == 2
        assert not out
        assert err == f"error: target is on backend {target.split(':')[1]}, expected odo2\n"

    @pytest.mark.parametrize("pair,code_want", [("ghost", 2), ("alpha", 0)])
    def test_inserted_cancelling_pair(self, capsys, tmp_path, pair, code_want):
        # x x^-1 cancels in every group, but only a name the environment
        # binds may cancel: an unresolved one is malformed input
        cert_file = tmp_path / "cert.json"
        run(capsys, "certify",
            "--tau0", "elem:odo2:[(ε;+1)]",
            "--alpha", ALPHA_ODO,
            "--beta", BETA_ODO,
            "--out", str(cert_file))
        data = json.loads(cert_file.read_text())
        data["factors"][0]["conjugator"][:0] = [[pair, 1], [pair, -1]]
        cert_file.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(cert_file))
        assert code == code_want
        if code_want == 0:
            assert "PASS" in out
        else:
            assert "ghost" in err and "Traceback" not in err


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [PostconditionError("swap lost a piece"),
                                     RuntimeError("swap lost a piece")],
                             ids=lambda e: type(e).__name__)
    def test_internal_error_exit_code(self, capsys, monkeypatch, exc):
        def broken(*args):
            raise exc
        monkeypatch.setattr("fullgroup.cli.exact_swap_involution", broken)
        code, out, err = run(capsys, "swap", "b2:{00}", "b2:{10}", "--backend", "odo2")
        assert code == 4
        assert not out
        assert err == f"internal error: {type(exc).__name__}: swap lost a piece\n"

    def test_refused_gw_round(self, capsys, monkeypatch):
        monkeypatch.setattr(transfers, "source_range",
                            first_range_emptied(transfers.source_range))
        code, out, err = run(capsys, "gw", "b3:{0}", "b3:{1}", "--backend", "odo3",
                             "--rounds", "2")
        assert code == 4
        assert not out
        assert err.startswith("internal error: PostconditionError: round 2 comparison refused")
        assert err.count("\n") == 1

    def test_overlapping_decomposition_pieces(self, capsys, monkeypatch):
        # a separated cylinder that the element maps onto itself hands
        # overlapping pieces of its own to the involution
        monkeypatch.setattr(decompose, "separated_cylinder",
                            lambda tau: ClopenSet.from_words(tau.base, [(0,)]))
        code, out, err = run(capsys, "decompose", "elem:shift2:[(00>01),(01>00),(1>1)]",
                             "--eps", "1/4")
        assert code == 4
        assert not out
        assert err.startswith("internal error: PostconditionError: two-factor pieces overlap")
        assert err.count("\n") == 1

    def test_repeated_decomposition_piece(self, capsys, monkeypatch):
        # the swap-back pairing repeats its first piece: the decomposition
        # built the overlapping pieces itself, so they are a bug, not bad input
        real = Odometer.pair_onto

        def repeated(self, S, T):
            pieces = real(self, S, T)
            return pieces[:1] + pieces
        monkeypatch.setattr(Odometer, "pair_onto", repeated)
        code, out, err = run(capsys, "decompose", INPUTS["odo2"]["alpha"], "--eps", "1/8")
        assert code == 4
        assert not out
        assert err == ("internal error: PostconditionError: peeled factor is not an element: "
                       "source cylinders overlap: (0, 1, 0, 0, 0) vs (0, 1, 0, 0, 0)\n")

    # each command pairs at least two odometer cylinders, which the broken
    # pairing maps onto one
    @pytest.mark.parametrize("args", [
        ("compare", "b2:{00,010}", "b2:{1}"),
        ("transfer", "b2:{00,010}", "b2:{1}"),
        ("swap", "b2:{00,010}", "b2:{10,110}"),
        ("gw", "b2:{00,010}", "b2:{10,110}", "--rounds", "2"),
    ], ids=lambda args: args[0])
    def test_invalid_comparison_witness(self, capsys, monkeypatch, args):
        monkeypatch.setattr("fullgroup.backends.pair_cylinders", overlapping_pairing)
        code, out, err = run(capsys, *args, "--backend", "odo2")
        assert code == 4
        assert not out
        assert err.startswith("internal error: PostconditionError: ")
        assert err.count("\n") == 1


class TestClosurePostconditions:
    """Each check of the closure synthesizer fires on a broken transfer,
    image or factor list: certify exits 4 with one line."""

    def certify_fails(self, capsys, message):
        code, out, err = run(capsys, *certify_argv("odo2"))
        assert code == 4
        assert not out
        assert err == f"internal error: PostconditionError: {message}\n"

    def test_parked_region_fills_the_space(self, capsys, monkeypatch):
        # gamma0 becomes the odometer's rotation, whose support is the whole space
        real = certificates.full_group_transfer
        rotation = parse_element(INPUTS["odo2"]["rotation"])
        monkeypatch.setattr(certificates, "full_group_transfer",
                            lambda *args: replace(real(*args), element=rotation))
        self.certify_fails(capsys, "parked region filled the whole space")

    def test_generator_does_not_displace(self, capsys, monkeypatch):
        # the image of any set under tau0 reads as the whole space
        real = certificates.image_of_clopen
        tau0 = parse_element(INPUTS["odo2"]["rotation"])
        monkeypatch.setattr(certificates, "image_of_clopen",
                            lambda f, A: ClopenSet.whole(A.base) if f == tau0 else real(f, A))
        self.certify_fails(capsys, "conjugated generator does not displace the parked region")

    def test_closure_element_does_not_separate(self, capsys, monkeypatch):
        # the first transfer, gamma0, leaves supp(a) where it is, so
        # gamma = [1, tau] = 1 keeps a on b's support
        real = certificates.full_group_transfer
        calls = []

        def stay(backend, A, B):
            calls.append(A)
            result = real(backend, A, B)
            return replace(result, element=identity(backend)) if len(calls) == 1 else result
        monkeypatch.setattr(certificates, "full_group_transfer", stay)
        self.certify_fails(capsys, "closure element does not separate the supports")

    def test_certificate_does_not_evaluate(self, capsys, monkeypatch):
        # the first factor's sign is flipped, and tau0, the rotation, is no involution
        real = certificates._atomic_closure_factors

        def flipped(*args):
            first, *rest = real(*args)
            return (certificates.ConjugateFactor(first.conjugator, -first.sign), *rest)
        monkeypatch.setattr(certificates, "_atomic_closure_factors", flipped)
        self.certify_fails(capsys, "closure certificate does not evaluate to the commutator")


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["gw", "b2:{0}", "b2:{1}"], "the following arguments are required: --rounds"),
        (["swap", "-b2:{0}", "b2:{1}"], "the following arguments are required: B"),
        (["selftest", "--suite", "comparison", "--trials", "x"],
         "argument --trials: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
    ], ids=["missing-option", "leading-dash", "bad-int", "no-command"])
    def test_usage_error_returns_2(self, capsys, argv, message):
        # argparse's message goes to stderr and main returns, never exits
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("usage: fullgroup") and err.endswith(f"error: {message}\n")

    # integer options take ASCII digits only: int() would also read other
    # Unicode digits, '_' separators and surrounding spaces; 5000 digits
    # are over what int() converts
    @pytest.mark.parametrize("argv, option, value", [
        (["selftest", "--suite", "clopen-algebra", "--trials", "٢", "--seed", "٧"],
         "--trials", "٢"),
        (["selftest", "--suite", "clopen-algebra", "--seed", "٧"], "--seed", "٧"),
        (["selftest", "--suite", "clopen-algebra", "--max-depth", "٣"], "--max-depth", "٣"),
        (["gw", "b2:{00}", "b2:{10}", "--rounds", "٣"], "--rounds", "٣"),
        (["selftest", "--suite", "clopen-algebra", "--trials", "1_0"], "--trials", "1_0"),
        (["selftest", "--suite", "clopen-algebra", "--trials", " 2 "], "--trials", " 2 "),
        (["selftest", "--suite", "clopen-algebra", "--seed", "7" * 5000], "--seed", "7" * 5000),
    ], ids=["trials", "seed", "max-depth", "rounds", "underscore", "spaces", "overlong"])
    def test_non_ascii_integers_are_usage_errors(self, capsys, argv, option, value):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith("usage: fullgroup")
        assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")

    def test_help_returns_0(self, capsys):
        code, out, err = run(capsys, "swap", "--help")
        assert code == 0 and out.startswith("usage: fullgroup swap") and not err


class TestSelftest:
    def test_reports_the_depth_that_ran(self, capsys):
        # a suite runs at depth max(3, --max-depth), and its report says so
        reports = []
        for depth in ("1", "3"):
            code, out, _ = run(capsys, "selftest", "--suite", "clopen-algebra", "--seed", "5",
                               "--trials", "20", "--max-depth", depth)
            assert code == 0
            reports.append(artifact_of(out))
        assert reports[0] == reports[1] and reports[0]["max_depth"] == 3

    def test_deterministic_artifacts(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "selftest", "--suite", "group-axioms",
                             "--backend", "shift2", "--seed", "7",
                             "--trials", "10", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "selftest", "--suite", "nope")
        assert code == 2

    def test_unwritten_backend_tag(self, capsys):
        # base 11 has no textual encoding, so its tag is refused when read,
        # before any trial runs
        code, out, err = run(capsys, "selftest", "--suite", "clopen-algebra",
                             "--backend", "odo11", "--trials", "1")
        assert code == 2 and not out
        assert err == "error: bad backend tag 'odo11'\n"

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run(capsys, "selftest", "--suite", "comparison",
                         "--trials", "0")
        assert code == 2

    def test_summary_lines(self, capsys):
        code, out, _ = run(capsys, "selftest", "--suite", "swap-involution",
                           "--backend", "odo2", "--seed", "3", "--trials", "5")
        assert code == 0
        assert "PASS" in out

    def test_failing_suite_exits_3_with_its_artifact(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(selftest, "equals", lambda f, g: False)
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "selftest", "--suite", "group-axioms", "--trials", "2",
                             "--out", str(out_file))
        assert code == 3
        assert "  FAIL  associativity: 0 passed, 2 failed\n" in out
        assert out.endswith(f"artifact written to {out_file}\n") and not err
        data = json.loads(out_file.read_text())
        assert data["ok"] is False and data["format_version"] == 1


# every command that takes --out, on golden inputs
OUT_COMMANDS = {
    "compare": ["compare", *INPUTS["odo2"]["compare"]],
    "transfer": ["transfer", *INPUTS["odo2"]["compare"]],
    "swap": ["swap", *INPUTS["odo2"]["swap"]],
    "gw": ["gw", *INPUTS["odo2"]["swap"], "--rounds", "2"],
    "decompose": ["decompose", INPUTS["odo2"]["alpha"], "--eps", "1/8"],
    "split": ["split", INPUTS["odo2"]["rotation"]],
    "certify": ["certify", "--tau0", INPUTS["odo2"]["rotation"],
                "--alpha", INPUTS["odo2"]["alpha"], "--beta", INPUTS["odo2"]["beta"]],
    "selftest": ["selftest", "--suite", "swap-involution", "--trials", "2"],
}


@pytest.mark.parametrize("name", list(OUT_COMMANDS))
def test_failed_write_prints_only_its_error(capsys, tmp_path, name):
    # the artifact is written before anything is printed, so a write that
    # fails leaves no summary behind its error
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *OUT_COMMANDS[name], "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("i/o error: ") and err.count("\n") == 1


# every character of the golden encodings, plus every digit, ε, a space
# and three non-ASCII digits
ALPHABET = sorted({c for x in INPUTS.values() for v in x.values()
                   for text in (v if isinstance(v, tuple) else (v,)) for c in text}
                  | set("0123456789ε ²١٢"))


# the digits of a word: after "{" or "," in a set, after "(" or ">" in an
# element; an odometer power; a piece of an element or a word of a set,
# with the comma before it
WORD_DIGIT = re.compile(r"(?<=[{,(>])[0-9]+")
POWER = re.compile(r"(?<=;)[+-][0-9]+")
PIECE = re.compile(r",?(\([^()]*\)|(?<=[{,])[0-9ε]+)")


@st.composite
def mutated(draw, text: str) -> str:
    """`text` with one character deleted, inserted or replaced, or one
    slice of 3 characters duplicated; or, keeping the encoding well
    formed, one digit of a word replaced by another digit of the base,
    an odometer power moved by 1, or a piece dropped."""
    kind = draw(st.sampled_from(["delete", "insert", "replace", "duplicate",
                                 "digit", "power", "piece"]))
    if kind in ("digit", "power", "piece"):
        spans = [m.span() for m in {"digit": WORD_DIGIT, "power": POWER,
                                    "piece": PIECE}[kind].finditer(text)]
        if spans:
            i, j = draw(st.sampled_from(spans))
            if kind == "piece":   # a first item takes the comma after it
                new, j = "", j + (text[i] != "," and text[j:j + 1] == ",")
            elif kind == "power":
                new = f"{int(text[i:j]) + draw(st.sampled_from([-1, 1])):+d}"
            else:
                i = draw(st.integers(i, j - 1))
                base = int(re.search(r"[0-9]+", text).group())
                new = str(draw(st.sampled_from(
                    [d for d in range(base) if str(d) != text[i]])))
                j = i + 1
            return text[:i] + new + text[j:]
    i = draw(st.integers(0, len(text) - 1))
    if kind == "delete":
        return text[:i] + text[i + 1:]
    if kind == "duplicate":
        return text[:i] + text[i:i + 3] + text[i:]
    c = draw(st.sampled_from(ALPHABET))
    return text[:i] + c + text[i + (kind == "replace"):]


@st.composite
def mutated_runs(draw) -> list[str]:
    """A golden decompose, split, compare, transfer (plain or
    --commutator), swap, gw or certify run with one of its encodings
    mutated."""
    tag = draw(st.sampled_from(list(INPUTS)))
    x, b = INPUTS[tag], ["--backend", tag]
    elem = x[draw(st.sampled_from(["rotation", "alpha", "beta"]))]
    argv = draw(st.sampled_from([
        ["decompose", elem, "--eps", "1/8"], ["split", elem],
        ["compare", *x["compare"], *b], ["transfer", *x["compare"], *b],
        ["transfer", *x["commutator"], "--commutator", *b], ["swap", *x["swap"], *b],
        ["gw", *x["swap"], "--rounds", "4", *b], certify_argv(tag)]))
    texts = {t for v in x.values() for t in (v if isinstance(v, tuple) else (v,))}
    i = draw(st.sampled_from([i for i, arg in enumerate(argv) if arg in texts]))
    return argv[:i] + [draw(mutated(argv[i]))] + argv[i + 1:]


@settings(max_examples=200, deadline=None)
@given(mutated_runs())
def test_mutated_encodings_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
