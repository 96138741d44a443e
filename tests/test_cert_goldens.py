"""Certificate reports against digests recorded before the verifiers shared
their number type, class names, bound test, vertex draw and cardinality
rows, and before the SDP gap pipeline became gap_certificate.

tests/data/cert_report_goldens.json holds, per case, the SHA-256 of the
compact JSON of [rows, as_dict()], each row [id, lhs, rhs, slack, count]:
the lifted-LP reports in exhaustive and sampled mode and the property
checks, on gap instances drawn at seed 0 and checked at seeds 1 and 2
with 500 samples (100x20 is in 60-digit float mode; the others run two
rounds), and the SDP reports of the 1280x384 gap instance.  It also holds
the NoCoverError that three disconnected gap instances raise at one round.
The property digests were recorded again when the one-round checks became
class rows (so 100x20 gives one report at both seeds) and the rows
property-saturate and property-lift-zero, which could not fail, were
dropped from the sampler.
"""

import hashlib
import json
import os

import pytest

from ssbve.certs import (build_sa_certificate, gap_certificate,
                         sample_property_checks, verify_sa_certificate,
                         verify_sdp_certificate)
from ssbve.cli import main
from ssbve.errors import NoCoverError
from ssbve.generators import gen_gap_instance

with open(os.path.join(os.path.dirname(__file__), "data",
                       "cert_report_goldens.json")) as _fh:
    GOLDEN = json.load(_fh)

SA_INSTANCES = {  # name: (n, s, d_l, rounds)
    "gap-100x20": (100, 20, 10, 1),
    "gap-24x6": (24, 6, 3, 2),
    "gap-40x8": (40, 8, 4, 2),
}
SAMPLES = 500


def digest(rep) -> str:
    rows = [[r.constraint_id, r.lhs, r.rhs, r.slack, r.count]
            for r in rep.checks]
    blob = json.dumps([rows, rep.as_dict()], separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def sa_certificate(name: str):
    n, s, d_l, rounds = SA_INSTANCES[name]
    return build_sa_certificate(gen_gap_instance(n, s, float(d_l), 0),
                                rounds)


@pytest.mark.parametrize("case", sorted(GOLDEN["sa"]))
def test_sa_report(case):
    name, mode, seed = case.split("/")
    rep = verify_sa_certificate(sa_certificate(name), mode=mode,
                                samples=SAMPLES, seed=int(seed))
    assert digest(rep) == GOLDEN["sa"][case]


@pytest.mark.parametrize("case", sorted(GOLDEN["props"]))
def test_property_samples(case):
    name, seed = case.split("/")
    rep = sample_property_checks(sa_certificate(name), SAMPLES,
                                 seed=int(seed))
    assert digest(rep) == GOLDEN["props"][case]


@pytest.mark.parametrize("case", sorted(GOLDEN["sdp"]))
def test_sdp_gap_report(case):
    _, k, seed = case.split("/")
    g = gen_gap_instance(1280, 384, 2.0, int(seed))
    rep = verify_sdp_certificate(gap_certificate(g, 2, int(k[1:])))
    assert digest(rep) == GOLDEN["sdp"][case]


@pytest.mark.parametrize("case", sorted(GOLDEN["no_cover"]))
def test_no_cover(case, capsys):
    """The verifier raises the recorded error, and certify exits 4 with
    its message."""
    size, d_l = case.split("/dl")
    n, s = size.split("x")
    kind, message = GOLDEN["no_cover"][case]
    assert kind == NoCoverError.__name__
    cert = build_sa_certificate(gen_gap_instance(int(n), int(s),
                                                 float(d_l), 1), 1)
    with pytest.raises(NoCoverError) as exc:
        verify_sa_certificate(cert, samples=SAMPLES, seed=1)
    assert str(exc.value) == message
    assert main(["--seed", "1", "certify", "--kind", "sa", "--n", n, "--s",
                 s, "--dl", d_l]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
