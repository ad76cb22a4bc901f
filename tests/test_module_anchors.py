"""Byte-identity anchors for `qschur module` on cell modules larger than the
benchmark's, for `qschur verify` on A2 (2,2) at depth 2 and on B2 (2,1),
for `qschur gram` and `qschur decomp` (at cyclotomic=4) on B2 (2,1), for
`qschur decomp` at cyclotomic=4 on G2 (1,1), and for `qschur gram` on the
whole flag of A1 (48).

Each report runs as a fresh ``python -m qschur.cli`` process and its sha256
must equal a recorded digest.  The module digests were recorded before the
generic bases were picked from prefix-closed candidates, when these builds
took from about 7 s (B2 (2,1), A2 (3,2)) to about 4 minutes (G2 (1,1)).
The `qschur specialize` report on B2 (2,2) at cyclotomic=4 has no recorded
digest: its dimensions are checked instead.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import qschur

ANCHORS = [
    ("B2", [2, 1],
     "c38028cd56707f07acb132a85711ee607e23cbd762c85d503da479bb98199a09"),
    ("A2", [3, 2],
     "9574472c4daa2ba4f0b3c79d137016b431a6b13e49e076732488d10f1eae699d"),
    ("A3", [1, 1, 1],
     "1f36ba9b30a485250fb319954083d887e476053385adef4610c5836d6d1d6887"),
    ("G2", [1, 1],
     "364567f1bbc1447b62eecf990d18bb678e21929d8b6d3f7c40e7e23fa22659d8"),
]

VERIFY_A2_22_DEPTH_2 = \
    "2f6b47115a79f670c82325d66603e16b11814844e08c47ceb4d3d79df396d847"

# recorded while the span rank and the coordinates were eliminations over
# Q(v), when this job took about 2.3 s
VERIFY_B2_21 = \
    "f61753a9e688ae3575858cab77a03dc38fca5aa1126de143e2a07dc46962cb34"

# recorded while every Gram entry was read off a chain of vector pushes,
# when each of the B2 (2,1) jobs took about 5 s; the G2 (1,1) digest was
# recorded while decomp ranked the specialized integral Gram of every
# weight space, when the job took about 26 s, so it runs under a 10 s
# timeout: ranks read from the lattice again would fail it
B2_21 = {"datum": {"preset": "B2"}, "pi": {"seeds": [[2, 1]]}}
G2_11 = {"datum": {"preset": "G2"}, "pi": {"seeds": [[1, 1]]}}
B2_22 = {"datum": {"preset": "B2"}, "pi": {"seeds": [[2, 2]]}}
# recorded while the cyclotomic scan tried every Phi_ell by exact division
# and each Gaussian binomial ran all t of its factor passes, when the job
# took about 1.8 s: long Gram determinants, their scan and their printing
A1_48 = {"datum": {"preset": "A1"}, "pi": {"seeds": [[48]]}}
WORD_GRAM_ANCHORS = [
    ("gram", "gram", B2_21, 60,
     "996cf2312eec5913fc07545d778b1de25f5ad2d1f76279232e88c98c8464c3bd"),
    ("decomp", "decomp", dict(B2_21, field="cyclotomic=4"), 60,
     "e5b426b9a39e99444fd98786c4e8efb895f515cb1bbeefd9050bdc34d0c01d51"),
    ("decomp-G2-11", "decomp", dict(G2_11, field="cyclotomic=4"), 10,
     "18bd7c1323043d355b8aa08fd7f0645c777a162c93b139c10e95a3bf6c6c550a"),
    ("gram-A1-48", "gram", A1_48, 60,
     "0b43443f51d7cb04cf30faceaf56d4d1fe9e845a82689a7c43a277906f17d77c"),
]


def _report(tmp_path, command, doc, *options, timeout=60):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(qschur.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "qschur.cli", command, "--config", str(cfg),
         *options],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=timeout)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def _report_digest(tmp_path, command, doc, timeout=60):
    return hashlib.sha256(
        _report(tmp_path, command, doc, timeout=timeout)).hexdigest()


@pytest.mark.parametrize("preset,seed,digest", ANCHORS,
                         ids=["%s-%s" % (p, "".join(map(str, s)))
                              for p, s, _ in ANCHORS])
def test_module_report_matches_anchor(tmp_path, preset, seed, digest):
    assert _report_digest(tmp_path, "module", {
        "datum": {"preset": preset}, "pi": {"seeds": [seed]}}) == digest


def test_verify_report_matches_anchor(tmp_path):
    # S(pi) of dimension 994; the digest was recorded while
    # cellular.star_swaps still compared star(x) with y, through G^-1
    assert _report_digest(tmp_path, "verify", {
        "datum": {"preset": "A2"}, "pi": {"seeds": [[2, 2]]},
        "caps": {"depth": 2}}) == VERIFY_A2_22_DEPTH_2


def test_verify_b2_21_report_matches_anchor(tmp_path):
    # S(pi) of dimension 2272: the glued basis has span rank 2272
    assert _report_digest(tmp_path, "verify", {
        "datum": {"preset": "B2"}, "pi": {"seeds": [[2, 1]]}}) == VERIFY_B2_21


@pytest.mark.parametrize("command,doc,timeout,digest",
                         [a[1:] for a in WORD_GRAM_ANCHORS],
                         ids=[a[0] for a in WORD_GRAM_ANCHORS])
def test_word_gram_report_matches_anchor(tmp_path, command, doc, timeout,
                                         digest):
    assert _report_digest(tmp_path, command, doc, timeout) == digest


def test_specialize_b2_22_at_cyclotomic_4(tmp_path):
    # Delta(2,2) has the Weyl dimension 81 and a radical of 46 there; the
    # job did not finish while the ranks were read from the lattice
    report = json.loads(_report(
        tmp_path, "specialize", dict(B2_22, field="cyclotomic=4"),
        "--lambda", "2,2", timeout=10))
    [spec] = report["payload"]["specializations"]
    assert spec["dim_delta"] == 81
    assert sum(d for _, d in spec["radical_dims"]) == 46
