"""Two-level workflow management for a heart-disease identification pipeline.

A high-level engine interprets a node graph under SLA-driven policies; a
low-level grid engine maps its compute-heavy sub-workflows onto a ranked
resource quorum and executes them in one deterministic pass of the timing
recurrence that produced the mapping estimates.
"""

from .ecg import EcgFeatures, EcgSignal, estimate_disease, extract_features, synthesize_ecg
from .engine import RunRecord, record_document, run_workflow
from .errors import WmsError
from .experiments import load_workflow_bundle, run_cost_study, run_policy_comparison
from .gridengine import execute_plan, generate_catalogs, map_workflow
from .policy import ConfigRegistry, InformationBase, Sla, decide_policy, enforce, expand_soft_label
from .resources import AllocationCostParams, allocation_cost, generate_arq, rank_resources
from .runconfig import RunConfig, Thresholds, parse_run_config
from .workflow import parse_subworkflow, parse_workflow, topological_order

__version__ = "0.1.0"

__all__ = [
    "AllocationCostParams",
    "ConfigRegistry",
    "EcgFeatures",
    "EcgSignal",
    "InformationBase",
    "RunConfig",
    "RunRecord",
    "Sla",
    "Thresholds",
    "WmsError",
    "allocation_cost",
    "decide_policy",
    "enforce",
    "estimate_disease",
    "execute_plan",
    "expand_soft_label",
    "extract_features",
    "generate_arq",
    "generate_catalogs",
    "load_workflow_bundle",
    "map_workflow",
    "parse_run_config",
    "parse_subworkflow",
    "parse_workflow",
    "rank_resources",
    "record_document",
    "run_cost_study",
    "run_policy_comparison",
    "run_workflow",
    "synthesize_ecg",
    "topological_order",
]
