"""Exception hierarchy for the nkg toolkit.

Every error raised by the library derives from NkgError so callers can
catch at whatever granularity they need. Each class carries the exit code
of the `nkg` command as `exit_code`; a subclass inherits its parent's code
unless it sets its own. The codes:

    0  success
    1  unexpected error: an NkgError with no more specific code, or a bug
    2  unreadable input, malformed JSON, or schema/config violation
       (also any ValueError or OSError, such as a bad flag or a missing file)
    3  graph is already normalized
    4  embedding provider failure
    5  unknown id (event, entity, scope, or node)
    6  query mode does not match the graph
"""

from __future__ import annotations


class NkgError(Exception):
    """Base class for all nkg errors."""

    exit_code = 1


# --- annotation parsing / validation ---------------------------------------


class MalformedJson(NkgError):
    """Input bytes are not well-formed JSON."""

    exit_code = 2


class SchemaViolation(NkgError):
    """A document violates the annotation or graph schema."""

    exit_code = 2

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class DuplicateId(NkgError):
    """An identifier that must be unique appears more than once."""

    exit_code = 2

    def __init__(self, id_: str):
        super().__init__(f"duplicate id: {id_}")
        self.id = id_


class DanglingReference(NkgError):
    """A reference names an id not declared in the expected scope."""

    exit_code = 2

    def __init__(self, id_: str, context: str = ""):
        msg = f"dangling reference: {id_}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.id = id_


class EmptyLabel(NkgError):
    """A label that must be nonempty is empty or whitespace."""

    exit_code = 2


# --- graph core -------------------------------------------------------------


class GraphError(NkgError):
    """Base class for graph construction and query errors."""

    exit_code = 2


class DuplicateNode(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class UnknownEndpoint(GraphError):
    pass


class UnknownNode(GraphError):
    exit_code = 5  # an unknown query target, not bad input


class CycleIntroduced(GraphError):
    """Adding an edge would close a cycle in an acyclic edge kind."""

    def __init__(self, kind: str, detail: str = ""):
        msg = f"cycle introduced in {kind} subgraph"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.kind = kind


class ForestViolation(GraphError):
    """A node would gain a second parent in the event hierarchy."""


class GraphFrozen(GraphError):
    """Mutation attempted after finalize()."""


# --- normalization ----------------------------------------------------------


class AlreadyNormalized(NkgError):
    """Normalization applied to a graph whose labels are already canonical."""

    exit_code = 3


class ProviderError(NkgError):
    """Base class for embedding provider failures."""

    exit_code = 4


class MissingLabel(ProviderError):
    """A file-backed provider has no vector for the requested label."""

    def __init__(self, label: str):
        super().__init__(f"no vector for label: {label!r}")
        self.label = label


class RemoteTimeout(ProviderError):
    """The remote embedding endpoint did not answer within the timeout."""


class BadStatus(ProviderError):
    """The remote embedding endpoint answered with a non-200 status."""

    def __init__(self, status: int, detail: str = ""):
        msg = f"embedding endpoint returned status {status}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.status = status


class DimensionMismatch(ProviderError):
    """Vector count or dimension disagrees with the provider contract."""


# --- reasoning --------------------------------------------------------------


class NotNormalized(NkgError):
    """Normalized-mode query issued against a raw graph."""

    exit_code = 6


class UnknownEvent(NkgError):
    exit_code = 5


class UnknownEntity(NkgError):
    exit_code = 5


class UnknownScope(NkgError):
    exit_code = 5


class NotAnEventNode(NkgError):
    """Summary requested for a node that is neither event nor macro-event."""

    exit_code = 5


# --- evaluation -------------------------------------------------------------


class EmptyGold(NkgError):
    """A metric that requires a nonempty gold set received an empty one."""


class DuplicateElements(NkgError):
    """Ordering accuracy requires duplicate-free sequences."""
