"""Deep inputs on the command line, each run in a subprocess under an
address-space limit: the command must answer with its exit code within
seconds instead of exhausting memory."""

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fullgroup.backends import Odometer, OdometerPiece
from fullgroup.clopen import MAX_REFINED_CELLS, MAX_WORD_DEPTH
from fullgroup.decompose import MAX_DECOMPOSITION_CELLS
from fullgroup.elements import involution_from_partial
from fullgroup.encoding import format_element
from fullgroup.selftest import MAX_TRIALS
from fullgroup.transfers import MAX_GW_ROUNDS

from conftest import TEST_TIME_LIMIT_S

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 120

ALPHA = "elem:odo2:[(00;+2),(01;-2),(1;+0)]"
BETA = "elem:odo2:[(00;+0),(01;-1),(10;+1),(11;+0)]"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def cli(*argv):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fullgroup", *argv], capture_output=True,
        text=True, timeout=TIMEOUT_S, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": path})


def artifact_of(stdout: str) -> dict:
    return json.loads(stdout[stdout.index("\n{") + 1:])


def cells(word: str) -> str:
    return "b2:{" + word + "}"


def test_deep_compare_pairs_lazily():
    deep = "0" * 200
    done = cli("compare", cells(deep), cells("1"), "--backend", "odo2")
    assert done.returncode == 0, done.stderr
    data = artifact_of(done.stdout)
    assert data["witness"] == f"odo2:[({deep};+1)]"
    assert data["range"] == cells("1" + "0" * 199)


def test_deep_transfer_pairs_lazily():
    done = cli("transfer", cells("0" * 200), cells("1"), "--backend", "odo2")
    assert done.returncode == 0, done.stderr
    assert artifact_of(done.stdout)["image"] == cells("1" + "0" * 199)


def test_fine_decomposition_is_refused():
    # eps = 2^-20 needs cells of measure below 2^-21: 2^22 of them
    done = cli("decompose", ALPHA, "--eps", "1/1048576")
    assert done.returncode == 2, done.stderr
    assert f"needs {2 ** 22} cells" in done.stderr
    assert str(MAX_DECOMPOSITION_CELLS) in done.stderr


# an epsilon finer than the cell limit allows is refused from its depth
# alone, and one with a decimal exponent over MAX_WORD_DEPTH as it is
# parsed: before 10^20000 or 10^999999999 is built
@pytest.mark.parametrize("eps, message", [
    ("1e-2000", "needs 2^6645 cells at depth 6645"),
    (f"1e-{MAX_WORD_DEPTH}", f"over the limit of {MAX_DECOMPOSITION_CELLS}"),
    ("1e-20000", f"decimal exponent over the limit of {MAX_WORD_DEPTH}"),
    ("1e-60000", f"decimal exponent over the limit of {MAX_WORD_DEPTH}"),
    ("1e-999999999", f"decimal exponent over the limit of {MAX_WORD_DEPTH}")])
def test_tiny_epsilon_is_refused_fast(eps, message):
    started = time.perf_counter()
    done = cli("decompose", ALPHA, "--eps", eps)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert message in done.stderr and len(done.stderr) < 200
    assert time.perf_counter() - started < 5


def test_certify_against_deep_tau0_is_refused():
    # tau0 swaps [0^40] and [1 0^39]: the decomposition it asks for
    # refines the whole space to depth 43
    tau0 = involution_from_partial(Odometer(2), [OdometerPiece((0,) * 40, 1)])
    done = cli("certify", "--tau0", format_element(tau0), "--alpha", ALPHA,
               "--beta", BETA)
    assert done.returncode == 2, done.stderr
    assert f"over the limit of {MAX_DECOMPOSITION_CELLS}" in done.stderr


def test_too_many_gw_rounds_are_refused():
    done = cli("gw", cells("0"), cells("1"), "--backend", "odo2",
               "--rounds", "100000000")
    assert done.returncode == 2, done.stderr
    assert f"over the limit of {MAX_GW_ROUNDS}" in done.stderr


def test_too_many_selftest_trials_are_refused():
    done = cli("selftest", "--suite", "clopen-algebra", "--backend", "odo2",
               "--trials", "100000000")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"over the limit of {MAX_TRIALS}" in done.stderr


def test_selftest_words_over_the_depth_limit_are_refused():
    # the samplers draw words up to --max-depth digits deep
    done = cli("selftest", "--suite", "clopen-algebra", "--trials", "3",
               "--max-depth", "20000")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"over the word depth limit of {MAX_WORD_DEPTH}" in done.stderr


# a shallow odometer source paired against a deep word refines to the
# deep word's depth: 2^28 cells and more
DEEP = "0" * 29 + "1"
OVERSIZED = {
    "compare": ["compare", cells("01"), cells("1," + DEEP), "--backend", "odo2"],
    "transfer": ["transfer", cells("01"), cells("1," + DEEP), "--backend", "odo2"],
    "swap": ["swap", cells("01,1" + DEEP), cells("1" + "0" * 30 + ",00"),
             "--backend", "odo2"],
    "selftest": ["selftest", "--suite", "swap-involution", "--backend", "odo2",
                 "--max-depth", "30", "--trials", "10"],
}


@pytest.mark.parametrize("name", list(OVERSIZED))
def test_oversized_refinement_is_refused(name):
    done = cli(*OVERSIZED[name])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert f"over the limit of {MAX_REFINED_CELLS}" in done.stderr


# [0^4095 1] and [0^4095 0], words at MAX_WORD_DEPTH, both have measure
# 1/2^4096, an exact fraction of 1234 digits
HUGE = "0" * (MAX_WORD_DEPTH - 1)


@pytest.mark.parametrize("name, what", [("compare", "comparison"),
                                        ("transfer", "transfer")])
def test_huge_measures_are_written_short(name, what):
    done = cli(name, cells(HUGE + "1"), cells(HUGE + "0"), "--backend", "odo2")
    assert done.returncode == 1, done.stderr
    assert done.stderr == (f"precondition violated: {what} unavailable: "
                           "mu(A)=1/2^4096 is not below mu(B)=1/2^4096\n")


def test_each_test_runs_under_a_time_bound():
    # conftest arms a real-time timer for every test; its handler fails
    # the test when it fires
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_TIME_LIMIT_S
    with pytest.raises(pytest.fail.Exception, match=f"over {TEST_TIME_LIMIT_S} s"):
        signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)
