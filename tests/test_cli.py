"""CLI commands, artifacts, exit codes and determinism."""

import json

import pytest

from fullgroup.cli import main


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

    def test_gw(self, capsys):
        code, out, _ = run(capsys, "gw", "b2:{00}", "b2:{10}",
                           "--backend", "odo2", "--rounds", "2")
        assert code == 0
        data = artifact_of(out)
        assert data["rounds"] == 2


class TestDecomposeSplit:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose",
                           "elem:odo2:[(0;+1),(1;-1)]", "--eps", "3/8")
        assert code == 0
        data = artifact_of(out)
        assert data["reconstructs"] is True
        assert len(data["factors"]) >= 1

    def test_decompose_bad_eps(self, capsys):
        code, _, _ = run(capsys, "decompose",
                         "elem:odo2:[(0;+1),(1;-1)]", "--eps", "x")
        assert code == 2

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


ALPHA_ODO = "elem:odo2:[(00;+1),(01;+0),(10;-1),(11;+0)]"
BETA_ODO = "elem:odo2:[(00;+2),(01;-2),(10;+0),(11;+0)]"


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


class TestSelftest:
    def test_deterministic_artifacts(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "selftest", "--suite", "group-axioms",
                             "--backend", "shift2", "--seed", "7",
                             "--trials", "10", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "selftest", "--suite", "comparison", "--backend", "odo2",
            "--seed", "1", "--trials", "5", "--out", str(a))
        monkeypatch.setenv("FULLGROUP_SEED", "1")
        run(capsys, "selftest", "--suite", "comparison", "--backend", "odo2",
            "--seed", "999", "--trials", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "selftest", "--suite", "nope")
        assert code == 2

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run(capsys, "selftest", "--suite", "comparison",
                         "--trials", "0")
        assert code == 2

    def test_summary_lines(self, capsys):
        code, out, _ = run(capsys, "selftest", "--suite", "swap-involution",
                           "--backend", "odo2", "--seed", "3", "--trials", "5")
        assert code == 0
        assert "PASS" in out
