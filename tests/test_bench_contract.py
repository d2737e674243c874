"""The benchmark still runs against the library: each workload's
shortest run, untraced and traced, checks every output and fails none.
An API change that breaks what `bench/` calls fails here, and so does a
change to what the untraced run outputs: its digest is pinned.  A change
that alters bench output on purpose re-records the digest here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 over the encoded outputs of the untraced seed-7 run
DIGESTS = {
    "laws": "4ba2a0e14927c52d44c1ac8a12bb89657c01d5118b47c35a6d08b9ac196a8c56",
    "sets": "5448d6e418b06efc019d212b940878234cca958fcbb942a872a82994e10712df",
    "certify": "da0b6c6adc256aed829175b0f0cffc72683eba3e8f3edf7fafdc023bfe06d6d9",
}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["laws", "sets", "certify"])
def test_workload_runs_clean(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    run, result = map(json.loads, done.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace == "0":
        assert run["digest"] == DIGESTS[workload]
