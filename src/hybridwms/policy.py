"""SLA model, policy repository, decision point, enforcement, and the typed
configuration registry that enforcement writes.

A user's requirement is the triple (resource level, workflow performance,
application service level), optionally given as a natural-language soft label
that expands through a fixed table. The decision point picks one policy per
kind by condition match and priority. A condition reads SLA fields and grid
properties (``PROPERTIES``), each property observed from the resource pool the
decision is for, at t = 0, the instant the quorum is ranked, and only when a
predicate on it is checked. Enforcement writes the winning actions into a
``ConfigRegistry`` with full provenance; its closed schema of
``ConfigKeySpec``s gives one type check and one finiteness check
(``documents.is_finite_number``) for every value it holds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import documents as doc
from .errors import (
    InvalidConfigValue,
    NoMatchingPolicy,
    TypeMismatch,
    UnknownConfigKey,
    UnknownLabel,
    WmsError,
)
from .gridengine import SCHEDULER_KINDS
from .resources import LEVELS, RANDOM_LEVEL, grid_load
from .workflow import SERVICE_LEVELS

PERFORMANCE_LEVELS = ("Fast", "Standard", "Economy")

SOFT_LABELS = {
    "High Performance": ("L1", "Fast", "EcgVhs"),
    "Low Cost": ("L3", "Economy", "EcgOnly"),
    "Balanced": ("L2", "Standard", "EcgDetect"),
}

#: The values each SLA field but ``user_id`` may hold, in an SLA and in a policy condition.
SLA_DOMAINS = {"resource_level": LEVELS, "performance": PERFORMANCE_LEVELS, "service_level": SERVICE_LEVELS}

#: SLA fields a policy condition may reference without a property prefix.
SLA_FIELDS = ("user_id", *SLA_DOMAINS)

#: The grid properties a policy condition may read, each a number observed from
#: the pool at t = 0: ``grid.load`` is the pool's mean system load.
PROPERTIES = {"grid.load": lambda pool: grid_load(pool, 0.0)}

#: Application selector values: the three service levels plus a variant that
#: forces the simulation loop to run regardless of the diagnosis.
APP_WORKFLOWS = SERVICE_LEVELS + ("EcgVhsAlways",)


class Sla(NamedTuple):
    user_id: str
    resource_level: str | None = None
    performance: str | None = None
    service_level: str | None = None
    soft_label: str | None = None


def expand_soft_label(sla: Sla) -> Sla:
    """Expand a soft requirement into explicit SLA fields.

    Explicit fields already present win over the table entry. The returned
    SLA carries no soft label and is ready for policy decision.
    """
    if sla.soft_label is None:
        raise ValueError("sla has no soft label to expand")
    if sla.soft_label not in SOFT_LABELS:
        raise UnknownLabel(f"unknown soft requirement {sla.soft_label!r}")
    level, performance, service = SOFT_LABELS[sla.soft_label]
    return Sla(
        user_id=sla.user_id,
        resource_level=sla.resource_level or level,
        performance=sla.performance or performance,
        service_level=sla.service_level or service,
        soft_label=None,
    )


class PolicyKind(str, Enum):
    """The kinds of policy, declared in the order enforcement applies them."""

    APP = "AppService"
    RESOURCE = "Resource"
    WORKFLOW = "LowLevelWorkflow"


#: The condition operators a repository may use, and what each computes.
_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le, ">=": operator.ge}


class Predicate(NamedTuple):
    key: str
    op: str  # a key of _OPERATORS
    value: object


@dataclass(frozen=True)
class Policy:
    id: str
    kind: PolicyKind
    priority: int
    condition: tuple[Predicate, ...]
    actions: tuple[tuple[str, object], ...]

    def __post_init__(self):
        if not self.actions:
            raise ValueError(f"policy {self.id!r} has no actions")


# --------------------------------------------------------------------------
# Configuration registry


class ConfigKeySpec(NamedTuple):
    type: type
    default: object
    domain: tuple | None = None  # closed value set, when applicable
    minimum: float | None = None


CONFIG_SCHEMA = {
    "resource.level": ConfigKeySpec(str, "L3", domain=LEVELS + (RANDOM_LEVEL,)),
    "resource.alpha": ConfigKeySpec(float, 0.5, minimum=0.0),
    "resource.beta": ConfigKeySpec(float, 0.5, minimum=0.0),
    "scheduler.kind": ConfigKeySpec(str, "MinEFT", domain=SCHEDULER_KINDS),
    "scheduler.seed": ConfigKeySpec(int, 0),
    "app.workflow": ConfigKeySpec(str, "EcgVhs", domain=APP_WORKFLOWS),
    "vhs.max_iter": ConfigKeySpec(int, 4, minimum=1),
    "vhs.tolerance": ConfigKeySpec(float, 0.1, minimum=1e-12),
}

DEFAULT_PROVENANCE = "default"


class ConfigEntry(NamedTuple):
    value: object
    provenance: str


def _type_ok(value, expected: type) -> bool:
    if isinstance(value, bool):
        return False  # bool is an int subclass; never accept it for numbers
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


class ConfigRegistry:
    """Runtime configuration written by policy enforcement.

    Every entry is traceable to the policy that wrote it or to the documented
    default it was initialized with; ``CONFIG_SCHEMA`` is the closed key set.
    """

    def __init__(self):
        self._entries = {key: ConfigEntry(spec.default, DEFAULT_PROVENANCE) for key, spec in CONFIG_SCHEMA.items()}

    def get(self, key: str):
        return self.entry(key).value

    def entry(self, key: str) -> ConfigEntry:
        if key not in self._entries:
            raise UnknownConfigKey(f"config key {key!r} is not registered")
        return self._entries[key]

    def set(self, key: str, value, provenance: str) -> None:
        self.entry(key)  # refuses a key that is not registered
        spec = CONFIG_SCHEMA[key]
        if not _type_ok(value, spec.type):
            raise TypeMismatch(f"config key {key!r} expects {spec.type.__name__}, got {type(value).__name__}")
        if spec.type is float:
            if not doc.is_finite_number(value):
                raise InvalidConfigValue(f"config key {key!r} must be finite, got {value!r}")
            value = float(value)
        if spec.domain is not None and value not in spec.domain:
            raise InvalidConfigValue(f"config key {key!r} must be one of {list(spec.domain)}, got {value!r}")
        if spec.minimum is not None and value < spec.minimum:
            raise InvalidConfigValue(f"config key {key!r} must be >= {spec.minimum}, got {value!r}")
        self._entries[key] = ConfigEntry(value, provenance)

    def as_dict(self) -> dict:
        return {key: {"value": entry.value, "provenance": entry.provenance} for key, entry in sorted(self._entries.items())}


# --------------------------------------------------------------------------
# Policy decision point


def _predicate_holds(predicate: Predicate, sla: Sla, pool) -> bool:
    actual = getattr(sla, predicate.key) if predicate.key in SLA_FIELDS else PROPERTIES[predicate.key](pool)
    try:
        return _OPERATORS[predicate.op](actual, predicate.value)
    except TypeError as exc:
        raise TypeMismatch(f"cannot compare {predicate.key}={actual!r} with {predicate.value!r}") from exc


def policy_matches(policy: Policy, sla: Sla, pool) -> bool:
    return all(_predicate_holds(p, sla, pool) for p in policy.condition)


def decide_policy(sla: Sla, repo: list[Policy], pool) -> tuple[Policy, ...]:
    """Select the matching policy with maximal priority for each kind, and
    return them in ``PolicyKind`` order.

    Ties break by ascending policy id. A property predicate observes its
    property from ``pool`` when it is checked, so a repository that names no
    property reads no load.
    """
    if sla.soft_label is not None:
        raise ValueError("sla must be expanded before policy decision")
    chosen = []
    for kind in PolicyKind:
        matching = [p for p in repo if p.kind is kind and policy_matches(p, sla, pool)]
        if not matching:
            raise NoMatchingPolicy(kind.value)
        chosen.append(min(matching, key=lambda p: (-p.priority, p.id)))
    return tuple(chosen)


# --------------------------------------------------------------------------
# Enforcement


class Override(NamedTuple):
    key: str
    overridden: str  # losing policy id
    overriding: str  # winning policy id
    old_value: object
    new_value: object


def enforce(policies: tuple[Policy, ...], registry: ConfigRegistry) -> tuple[Override, ...]:
    """Apply the policies' actions to the registry, in the order given.

    A later write to the same key wins and is returned as an override.
    Enforcing the same policies twice leaves the registry unchanged.
    """
    overrides = []
    written_by: dict[str, tuple[str, object]] = {}
    for policy in policies:
        for key, value in policy.actions:
            if key in written_by:
                loser, old_value = written_by[key]
                overrides.append(Override(key, loser, policy.id, old_value, value))
            registry.set(key, value, policy.id)
            written_by[key] = (policy.id, value)
    return tuple(overrides)


# --------------------------------------------------------------------------
# Document parsing


_SLA_KEYS = frozenset(Sla._fields)
_POLICY_KEYS = frozenset(Policy.__dataclass_fields__)
_PREDICATE_KEYS = frozenset(Predicate._fields)
_ACTION_KEYS = frozenset({"key", "value"})


def parse_sla(document: dict) -> Sla:
    root = doc.require_mapping(document, "sla")
    doc.reject_unknown(root, _SLA_KEYS, "sla")
    user_id = doc.get_str(root, "user_id", "sla")
    soft = root.get("soft_label")
    fields = {}
    for key, domain in SLA_DOMAINS.items():
        if key in root:
            value = doc.get_str(root, key, "sla")
            if value not in domain:
                raise doc.SchemaError(f"sla.{key}", f"expected one of {list(domain)}")
            fields[key] = value
    if soft is not None and (not isinstance(soft, str) or soft not in SOFT_LABELS):
        raise doc.SchemaError("sla.soft_label", f"expected one of {list(SOFT_LABELS)}")
    if soft is None and len(fields) != 3:
        raise doc.SchemaError("sla", "needs either soft_label or all of resource_level, performance, service_level")
    return Sla(user_id=user_id, soft_label=soft, **fields)


def parse_repository(document) -> list[Policy]:
    """Parse a policy repository document (JSON array of policy records)."""
    raw_repo = doc.require_list(document, "policies")
    scratch = ConfigRegistry()  # checks each action as enforcement will
    policies = []
    seen = set()
    for i, raw in enumerate(raw_repo):
        path = f"policies[{i}]"
        record = doc.require_mapping(raw, path)
        doc.reject_unknown(record, _POLICY_KEYS, path)
        pid = doc.get_str(record, "id", path)
        if pid in seen:
            raise doc.SchemaError(f"{path}.id", f"duplicate policy id {pid!r}")
        seen.add(pid)
        kind_name = doc.get_str(record, "kind", path)
        try:
            kind = PolicyKind(kind_name)
        except ValueError:
            raise doc.SchemaError(f"{path}.kind", f"unknown policy kind {kind_name!r}") from None
        priority = doc.get_int(record, "priority", path)

        condition = []
        for j, raw_pred in enumerate(doc.require_list(record.get("condition", []), f"{path}.condition")):
            pred_path = f"{path}.condition[{j}]"
            pred = doc.require_mapping(raw_pred, pred_path)
            doc.reject_unknown(pred, _PREDICATE_KEYS, pred_path)
            key = doc.get_str(pred, "key", pred_path)
            if key not in SLA_FIELDS and key not in PROPERTIES:
                raise doc.SchemaError(f"{pred_path}.key", f"{key!r} is neither an SLA field nor a declared property")
            op = doc.get_str(pred, "op", pred_path)
            if op not in _OPERATORS:
                raise doc.SchemaError(f"{pred_path}.op", f"unknown operator {op!r}")
            value = doc.get_required(pred, "value", pred_path)
            if key in SLA_FIELDS and not (isinstance(value, str) and value):
                raise doc.SchemaError(f"{pred_path}.value", f"SLA field {key!r} needs a non-empty string")
            if key in SLA_DOMAINS and value not in SLA_DOMAINS[key]:
                raise doc.SchemaError(f"{pred_path}.value", f"expected one of {list(SLA_DOMAINS[key])}")
            if key in PROPERTIES and not doc.is_finite_number(value):
                raise doc.SchemaError(f"{pred_path}.value", f"property {key!r} needs a finite number")
            condition.append(Predicate(key, op, value))

        actions = []
        for j, raw_action in enumerate(doc.require_list(doc.get_required(record, "actions", path), f"{path}.actions")):
            action_path = f"{path}.actions[{j}]"
            action = doc.require_mapping(raw_action, action_path)
            doc.reject_unknown(action, _ACTION_KEYS, action_path)
            key, value = doc.get_str(action, "key", action_path), doc.get_required(action, "value", action_path)
            try:
                scratch.set(key, value, pid)
            except WmsError as exc:
                raise doc.SchemaError(action_path, str(exc)) from None
            actions.append((key, value))
        if not actions:
            raise doc.SchemaError(f"{path}.actions", "policy needs at least one action")

        policies.append(Policy(pid, kind, priority, tuple(condition), tuple(actions)))
    return policies
