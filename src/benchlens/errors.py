"""Exception hierarchy shared across the pipeline.

All data-level failures derive from BenchlensError so the CLI can map them to
a single exit code; BudgetExceeded gets its own code.
"""

from __future__ import annotations


class BenchlensError(Exception):
    """Base class for all data and pipeline errors."""


class SchemaMismatch(BenchlensError):
    pass


class DuplicateKey(BenchlensError):
    pass


class MissingDenominator(BenchlensError):
    pass


class MissingCell(BenchlensError):
    def __init__(self, workload: str, machine: str):
        super().__init__(f"no run of workload {workload!r} on machine {machine!r}")
        self.workload = workload
        self.machine = machine


class EmptyInput(BenchlensError):
    pass


class AlreadyNormalized(BenchlensError):
    pass


class TooFewRows(BenchlensError):
    pass


class TargetUnreachable(BenchlensError):
    pass


class DimensionMismatch(BenchlensError):
    pass


class UnknownWorkload(BenchlensError):
    pass


class NonPositiveScore(BenchlensError):
    pass


class EmptySubset(BenchlensError):
    pass


class EmptySuite(BenchlensError):
    pass


class NoDefinedSubset(BenchlensError):
    pass


class ZeroHorizon(BenchlensError):
    pass


class NoCommonMetrics(BenchlensError):
    pass


class StoreChanged(BenchlensError):
    pass


class BudgetExceeded(BenchlensError):
    pass


class ConfigError(BenchlensError):
    pass
