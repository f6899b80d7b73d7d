"""Exception types shared across the controller."""


class IntentdError(Exception):
    """Base class for every error raised by this package."""


class TopologyParseError(IntentdError):
    """Topology document is not valid JSON or not an object."""


class TopologyValidationError(IntentdError):
    """Topology document violates a structural invariant.

    The message names the offending element (device id, connect point,
    host id) so callers can surface it directly.
    """


class UnknownDeviceError(IntentdError):
    """A device or connect point is not present in the topology."""


class NoPathError(IntentdError):
    """No path exists between the requested devices."""


class FabricError(IntentdError):
    """Base class for flow-rule installation failures."""


class DuplicateRuleError(FabricError):
    """A rule with the same (device, priority, selector, owner), or the same
    rule id, already exists."""


class LoopDetectedError(FabricError):
    """A packet walk exceeded the TTL bound; the rule set forwards in a cycle."""


class IntentValidationError(IntentdError):
    """An intent request references endpoints that cannot be satisfied."""


class UnknownHostError(IntentValidationError):
    """A host id is not present in the topology."""


class CompileError(IntentdError):
    """Compilation produced an internally inconsistent rule set."""


class StoreCapacityError(IntentdError):
    """The intent store is full; the request was not admitted."""


class UnknownIntentError(IntentdError):
    """No intent with the given id exists."""


class IllegalStateError(IntentdError):
    """The requested lifecycle transition is not allowed from the current state."""


class RequestSchemaError(IntentdError, ValueError):
    """A request document is missing, malformed, or does not fit the schema."""


class UnreachableEndpointError(IntentdError):
    """A REST client got no reply from its server; the request is not sent again."""
