"""The ``REPRO_SELFCHECK`` switch: which expensive cross-checks are armed.

``REPRO_SELFCHECK`` is a comma-separated subset of :data:`CHECKS`:

* ``pressure`` — the incremental
  :class:`~repro.schedule.pressure.PressureTracker` re-checks itself
  against a from-scratch ``LifetimeAnalysis`` after every event;
* ``colour`` — the incremental
  :class:`~repro.schedule.colouring.IncrementalArcColouring` validates
  its buckets after every event and replays the batch colouring oracle
  on every query;
* ``certify`` — every :func:`repro.codegen.generate_code` call certifies
  its own output with :mod:`repro.analysis` and raises
  :class:`~repro.errors.CertificationError` on a violation.

All are off by default: each costs orders of magnitude in speed and is
meant for test runs, e.g. ``REPRO_SELFCHECK=colour pytest``.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

SELFCHECK_ENV = "REPRO_SELFCHECK"
CHECKS = ("pressure", "colour", "certify")


def selfcheck_armed(check: str) -> bool:
    """True when ``REPRO_SELFCHECK`` names ``check``.

    Any unknown name in the variable is a
    :class:`~repro.errors.ConfigError`, so a typo cannot silently
    disarm a check.
    """
    raw = os.environ.get(SELFCHECK_ENV, "")
    armed = {name.strip() for name in raw.split(",") if name.strip()}
    unknown = armed.difference(CHECKS)
    if unknown:
        raise ConfigError(
            f"{SELFCHECK_ENV}: unknown check(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(CHECKS)}"
        )
    return check in armed
