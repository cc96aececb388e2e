"""One resolution path for *what* to schedule and *how* to execute it.

The CLI, :func:`repro.eval.runner.schedule_suite`, the experiment
drivers and :func:`repro.exec.engine.make_engine` all take the same two
small dataclasses:

* :class:`ScheduleRequest` — the *scheduling problem* side: which
  scheduler, with which :class:`~repro.core.params.MirsParams` (the
  II-search policy and the speculation width included), so cache keys,
  worker processes and the CLI all agree on one parameter set.
* :class:`SessionConfig` — the *execution session* side: worker count,
  result cache and progress callback, or a pre-built
  :class:`~repro.exec.engine.SuiteExecutor`.  ``make_executor()`` is
  memoized, so one session threaded through many driver calls keeps a
  single executor whose stats accumulate.
"""

from __future__ import annotations

import dataclasses

from repro.core.params import MirsParams
from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class ScheduleRequest:
    """What to schedule: the scheduler and its parameters
    (``params=None`` means :class:`~repro.core.params.MirsParams`
    defaults)."""

    scheduler: str = "mirsc"
    params: MirsParams | None = None
    #: Structured-trace sink (see :func:`repro.obs.resolve_tracer`):
    #: a :class:`~repro.obs.Tracer`, ``True`` (process-global tracer),
    #: ``False`` (off) or ``None`` (follow ``REPRO_TRACE``).  Purely
    #: diagnostic: not part of ``params`` and therefore of no cache
    #: key, and never pickled to worker processes
    #: (the executor ships a plain ``True``/``False`` instead).
    trace: object = None

    @classmethod
    def coerce(cls, value) -> "ScheduleRequest":
        """Accept the shorthands callers naturally reach for.

        ``None`` → defaults; a string → scheduler name (the historical
        third positional of ``schedule_suite``); a
        :class:`~repro.core.params.MirsParams` → parameters for the
        default scheduler; a request passes through unchanged.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(scheduler=value)
        if isinstance(value, MirsParams):
            return cls(params=value)
        raise ConfigError(
            f"cannot interpret {value!r} as a ScheduleRequest "
            "(expected None, a scheduler name, MirsParams or a request)"
        )

    def make_scheduler(self, machine, *, verify: bool = True, strict: bool = True):
        """Instantiate the requested scheduler for one machine."""
        # Imported lazily: worker processes import this module before
        # they know which scheduler they will run, and the baseline
        # import is pointless for MIRS-C-only sessions.
        from repro.baseline.noniterative import NonIterativeScheduler
        from repro.core.mirsc import MirsC

        if self.scheduler == "mirsc":
            return MirsC(
                machine, params=self.params, verify=verify, strict=strict,
                tracer=self.trace,
            )
        if self.scheduler == "baseline":
            # The baseline has no attempt machinery worth tracing.
            return NonIterativeScheduler(
                machine, params=self.params, verify=verify
            )
        if self.scheduler == "smt":
            from repro.smt.scheduler import SmtScheduler

            return SmtScheduler(
                machine, params=self.params, verify=verify, strict=strict,
                tracer=self.trace,
            )
        raise ValueError(f"unknown scheduler {self.scheduler!r}")


@dataclasses.dataclass
class SessionConfig:
    """How to execute: workers, cache, progress — one executor per session.

    Mutable on purpose: :meth:`make_executor` memoizes the built
    :class:`~repro.exec.engine.SuiteExecutor` in ``executor``, so a
    session object threaded through several driver calls accumulates
    stats in a single place (exactly like passing one executor
    everywhere used to).
    """

    jobs: int | None = None
    cache: object = None
    progress: object = None
    executor: object = None

    @classmethod
    def coerce(cls, value) -> "SessionConfig":
        """Accept ``None``, a session, or a bare ``SuiteExecutor``."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        from repro.exec.engine import SuiteExecutor

        if isinstance(value, SuiteExecutor):
            return cls(executor=value)
        raise ConfigError(
            f"cannot interpret {value!r} as a SessionConfig "
            "(expected None, a SessionConfig or a SuiteExecutor)"
        )

    def make_executor(self):
        """The session's executor (built once, then reused)."""
        if self.executor is None:
            from repro.exec.engine import SuiteExecutor

            self.executor = SuiteExecutor(
                jobs=self.jobs, cache=self.cache, progress=self.progress
            )
        return self.executor
