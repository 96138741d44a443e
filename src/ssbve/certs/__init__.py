"""Relaxation-gap certificates: Gram-matrix and lifted-LP constructions,
instance-property checks, and the gap-exponent calculator.

The Gram-matrix names are imported from sdp.py on first use (PEP 562),
because sdp.py loads numpy and the lifted-LP path does not need it."""

from .calculator import GapExponents, hardness_gap_calculator
from .properties import check_instance_properties
from .report import CheckRow, VerifyReport
from .sa import (SaCertificate, build_sa_certificate, cover_cost,
                 sa_lift_value, sample_property_checks, verify_sa_certificate)

_SDP_NAMES = frozenset({
    "SdpCertificate", "biregularize", "build_sdp_certificate", "cap_degrees",
    "gap_certificate", "verify_sdp_certificate"})

__all__ = [
    "GapExponents", "hardness_gap_calculator", "check_instance_properties",
    "CheckRow", "VerifyReport", "SaCertificate", "build_sa_certificate",
    "cover_cost", "sa_lift_value", "sample_property_checks",
    "verify_sa_certificate", "SdpCertificate", "biregularize",
    "build_sdp_certificate", "cap_degrees", "gap_certificate",
    "verify_sdp_certificate",
]


def __getattr__(name: str):
    if name not in _SDP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sdp
    value = globals()[name] = getattr(sdp, name)
    return value
