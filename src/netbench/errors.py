"""Exception hierarchy shared across the framework.

All errors raised by environments while executing *agent-supplied* input
must be caught at the episode boundary and turned into diagnostic text;
they never abort an episode.
"""


class NetbenchError(Exception):
    """Base class for every framework error."""


# --- action composition -----------------------------------------------------

class UnknownAction(NetbenchError):
    def __init__(self, name, index=None):
        self.name = name
        self.index = index
        super().__init__(f"unknown action {name!r}" + (f" at index {index}" if index is not None else ""))


class ArityMismatch(NetbenchError):
    def __init__(self, name, got, expected, index=None):
        self.name = name
        self.index = index
        super().__init__(f"action {name!r} takes {expected} operands, got {got}"
                         + (f" (index {index})" if index is not None else ""))


# --- generation -------------------------------------------------------------

class UnknownApp(NetbenchError):
    pass


class EmptyLevelSet(NetbenchError):
    pass


class NoEligibleOperand(NetbenchError):
    pass


class IneffectiveInjection(NetbenchError):
    """A fault injection produced no observable failure after bounded retries."""


# --- capacity planning ------------------------------------------------------

class CpError(NetbenchError):
    pass


class UnknownNode(CpError):
    pass


class DuplicateName(CpError):
    pass


class HierarchyViolation(CpError):
    pass


class InvariantViolation(CpError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


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
