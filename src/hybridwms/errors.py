"""Exception types shared across the workflow management stack."""

from __future__ import annotations


class WmsError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(WmsError):
    """A document violates its schema. Carries the path to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class CycleError(WmsError):
    """A task DAG contains a cycle; ``tasks`` lists the ids of one cycle."""

    def __init__(self, tasks):
        self.tasks = list(tasks)
        super().__init__("cycle through tasks: " + ", ".join(self.tasks))


class EmptyPool(WmsError):
    """Resource pool is empty."""


class EmptyParameterGrid(WmsError):
    """The simulation loop was started with no candidate parameters."""


class UnknownLabel(WmsError):
    """Soft requirement label is not in the expansion table."""


class NoMatchingPolicy(WmsError):
    """No policy of the given kind satisfies its condition against the SLA."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"no matching policy of kind {kind}")


class UnknownConfigKey(WmsError):
    """A key outside the configuration registry's schema, ``policy.CONFIG_SCHEMA``."""


class InvalidConfigValue(WmsError):
    """A config value is outside the key's declared value domain."""


class TypeMismatch(WmsError):
    """A value does not match the declared type for its key."""


class UnknownStrategy(WmsError):
    """A scheduler name that the grid engine does not register.

    Unregistered names in a workflow are ``SchemaError``s from ``engine.check_workflow``.
    """


class InfeasibleMapping(WmsError):
    """A quorum has no members, or names a member absent from the resource pool."""


class MissingInput(WmsError):
    """A node's required input key is absent."""

    def __init__(self, key):
        self.key = key
        super().__init__(f"missing input: {key}")


class NoBeatsDetected(WmsError):
    """Signal analysis found fewer than two beats."""


class NodeError(WmsError):
    """Wraps an error raised while executing one workflow node."""

    def __init__(self, node_id, cause: Exception):
        self.node_id = node_id
        self.cause = cause
        super().__init__(f"node {node_id}: {cause}")


class RunError(WmsError):
    """Wraps any error raised during a workflow run with the run id."""

    def __init__(self, run_id, cause: Exception):
        self.run_id = run_id
        self.cause = cause
        super().__init__(f"run {run_id}: {cause}")
