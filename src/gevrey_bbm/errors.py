"""Exception hierarchy shared by all modules, and the guard that turns a
float overflow into OverflowRisk."""

from contextlib import contextmanager

import numpy as np


class GevreyBBMError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(GevreyBBMError):
    """Argument violates a documented precondition."""


class OverflowRisk(GevreyBBMError):
    """A weighted quantity overflows double precision.

    Raised before a linear-scale weight evaluation that would overflow (the
    norms module has log-domain routines for that regime) and when a
    computed series, energy or bound is not finite.
    """


class BlowupDetected(GevreyBBMError):
    """A simulated coefficient became non-finite or exceeded the blowup cap;
    row names the run of a batched march it happened in."""

    def __init__(self, time, row=None):
        self.time = time
        self.row = row
        where = "" if row is None else f" in row {row}"
        super().__init__(f"non-finite state detected at t={time}{where}")


class NoConvergence(GevreyBBMError):
    """Fixed-point iteration hit the iteration cap before the tolerance."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)


class IdentityViolation(GevreyBBMError):
    """An exact polynomial identity failed; carries the counterexample."""

    def __init__(self, message, counterexample=None):
        self.counterexample = counterexample
        super().__init__(message)


class CrossCheckFailure(GevreyBBMError):
    """Two independent evaluation routes disagreed beyond tolerance."""

    def __init__(self, message, value_a=None, value_b=None):
        self.value_a = value_a
        self.value_b = value_b
        super().__init__(message)


class InsufficientData(GevreyBBMError):
    """Too few usable points for a fit: sigma points above the defect floor,
    radius samples that pass the fit policy, or spectral modes in a band."""


@contextmanager
def _overflow_guard(what: str):
    """Turn a float overflow in the block into OverflowRisk: a numpy overflow,
    division by zero or invalid value (inf - inf), or Python's OverflowError
    (a float power out of range)."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            yield
        except (FloatingPointError, OverflowError):
            raise OverflowRisk(f"{what} overflows double precision") from None
