"""Exception types shared across the package."""


class GkError(Exception):
    """Base class for all package errors."""


class CycleError(GkError):
    """The edge list contains a directed cycle (self-loops included)."""


class NotAntichainError(GkError):
    """A claimed antichain contains a comparable pair."""

    def __init__(self, u: int, v: int) -> None:
        self.u = u
        self.v = v
        super().__init__(f"vertices {u} and {v} are comparable")


class NotChainError(GkError):
    """A claimed chain contains a consecutive unreachable pair."""

    def __init__(self, u: int, v: int) -> None:
        self.u = u
        self.v = v
        super().__init__(f"vertex {v} is not reachable from {u}")


class NotPartitionError(GkError):
    """Members fail to cover every vertex exactly once."""


class OverlapError(GkError):
    """Members of a disjoint family share a vertex."""

    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        super().__init__(f"vertex {vertex} appears in more than one member")


class InfeasibleFlowError(GkError):
    """Flow values violate arc bounds or conservation."""


class InvalidCycleError(GkError):
    """The network has, or lacks, the return arc the flow routine needs."""


class ConservationError(GkError):
    """A flow does not peel into unit paths: a unit gets stuck at some node,
    or flow is left over on an arc that starts there."""

    def __init__(self, node: int) -> None:
        self.node = node
        super().__init__(f"flow is not conserved at node {node}")


class BudgetExceeded(GkError):
    """The instance is too large for the brute-force oracle."""


class MismatchError(GkError):
    """Two solvers disagree on a value that must match."""

    def __init__(self, message: str, witnesses: dict | None = None) -> None:
        self.witnesses = witnesses or {}
        super().__init__(message)


class ParseError(GkError):
    """The input text is not a valid graph description."""

    def __init__(self, message: str, line: int) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


class DomainError(GkError):
    """A generator parameter is outside its valid range."""
