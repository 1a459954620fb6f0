"""Exception types: every document or run fault is a ``WmsError``. A subclass
exists only if it carries fields, if package code catches it by type
(``NoBeatsDetected``), or if ``tests/test_imports.py`` lists it with its reason
(``EmptyParameterGrid``)."""

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


class EmptyParameterGrid(WmsError):
    """The simulation loop was started with no candidate parameters."""


class NoMatchingPolicy(WmsError):
    """No policy of the given kind satisfies its condition against the SLA."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"no matching policy of kind {kind}")


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
