"""repro.analysis — static certification of emitted VLIW pipelines.

The certifier proves bundle-level legality of
:func:`repro.codegen.generate_code` output *without executing it* — an
O(code-size) dataflow analysis replacing the O(II x iterations)
:mod:`repro.sim` differential for value-independent properties.  See
:mod:`repro.analysis.certifier` for the property list and the fixpoint
argument.

Entry points:

* :func:`certify_code` — certify emitted code against its schedule;
* :func:`certify_schedule` — emit and certify in one call;
* ``repro analyze`` — the CLI front-end (nonzero exit on violations);
* ``REPRO_SELFCHECK=certify`` — the sanitizer hook: every
  :func:`~repro.codegen.generate_code` call certifies its own output
  and raises :class:`repro.errors.CertificationError` on violations.
"""

from __future__ import annotations

from repro.analysis.certifier import certify_code, certify_schedule
from repro.analysis.cfg import BundleCFG, BundleSite
from repro.analysis.model import (
    CertifierReport,
    CertifierViolation,
    ViolationKind,
)

__all__ = [
    "BundleCFG",
    "BundleSite",
    "CertifierReport",
    "CertifierViolation",
    "ViolationKind",
    "certify_code",
    "certify_schedule",
]
