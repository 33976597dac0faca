"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    pass


class UnsupportedShape(WorkbenchError):
    """A structural query was asked of a point constructor that cannot answer it."""


class OutOfDomain(WorkbenchError):
    """A problem was applied to a name outside its domain."""


class NotAName(WorkbenchError):
    """A point is not a valid name for the requested represented space."""


class InsufficientPrefix(WorkbenchError):
    """A decode needed more symbols than the given prefix provides."""


class InvariantViolation(WorkbenchError):
    """A value violates its declared invariants."""


class CapacityExceeded(WorkbenchError):
    """A finite enumeration exceeded its configured bound."""


class NonRepresentable(WorkbenchError):
    """The requested object has no finite presentation in this workbench."""


class FuelExhausted(WorkbenchError):
    """A search or evaluation ran out of its step budget."""


class ArityCap(WorkbenchError):
    """A truth table exceeded the supported arity."""


class MiddleMismatch(WorkbenchError):
    """Witness composition with a mismatched middle problem."""


class NotParallelizable(WorkbenchError):
    """A reduction that parallelize_witness cannot apply row by row: one of
    its problems is not a single-answer (nat-valued) problem."""


class NotACylinder(WorkbenchError):
    """Strengthening requested against a problem with no registered cylinder witness."""


class NonConvergent(WorkbenchError):
    """A limit machine failed to stabilize within its budget."""


class ParseError(WorkbenchError):
    """A literal could not be parsed."""


class Stalled(FuelExhausted):
    """A run cannot emit its next symbol within the input symbols its fuel
    lets it read."""
