"""Two-level workflow management for a heart-disease identification pipeline.

A high-level engine interprets a node graph under SLA-driven policies; a
low-level grid engine maps its compute-heavy sub-workflows onto a ranked
resource quorum and executes them in one deterministic pass of the timing
recurrence that produced the mapping estimates.

``import hybridwms`` provides only ``WmsError``, the base of every document
and run error, and ``__version__``; it loads no other module. Everything else
is imported from its submodule, such as ``hybridwms.engine.run_workflow``.
"""

from .errors import WmsError  # noqa: F401 -- bench/run.py catches hybridwms.WmsError

__version__ = "0.1.0"
