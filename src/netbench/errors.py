"""Exception hierarchy shared across the framework.

All errors raised by environments while executing *agent-supplied* input
must be caught at the episode boundary and turned into diagnostic text;
they never abort an episode.
"""


class NetbenchError(Exception):
    """Base class for every framework error."""


# --- action composition -----------------------------------------------------

class UnknownAction(NetbenchError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown action {name!r}")


class ArityMismatch(NetbenchError):
    def __init__(self, name, got, expected):
        self.name = name
        super().__init__(f"action {name!r} takes {expected} operands, got {got}")


# --- generation -------------------------------------------------------------

class UnknownApp(NetbenchError):
    pass


class EmptyLevelSet(NetbenchError):
    pass


class NoEligibleOperand(NetbenchError):
    pass


class IneffectiveInjection(NetbenchError):
    """A fault injection produced no observable failure after bounded retries."""


class CorruptGroundTruth(NetbenchError):
    """A stored ground truth cannot be replayed into the state it records."""


# --- capacity planning ------------------------------------------------------

class UnknownNode(NetbenchError):
    pass


class DuplicateName(NetbenchError):
    pass


class HierarchyViolation(NetbenchError):
    pass


class OperandTypeMismatch(NetbenchError):
    """An operand is not of the type its operation takes."""


class ParseError(NetbenchError):
    pass


# --- routing ----------------------------------------------------------------

class ParameterOutOfRange(NetbenchError):
    pass


class UnknownFamily(NetbenchError):
    pass


class MethodOutOfRange(NetbenchError):
    pass


class NodeSetMismatch(NetbenchError):
    pass


# --- agents -----------------------------------------------------------------

class AgentProtocolError(NetbenchError):
    """Malformed agent message; recorded as an invalid turn, never fatal."""


class MissingInverse(NetbenchError):
    pass


class AgentTimeout(NetbenchError):
    pass


class TransportError(NetbenchError):
    pass


# --- evaluation -------------------------------------------------------------

class AppMismatch(NetbenchError):
    pass


class ZeroSamples(NetbenchError):
    pass
