"""Evaluation harness: statistics, tables, and paper experiments.

``repro.eval.experiments`` holds one module per figure/ablation; each
exposes a ``run_*`` function that returns plain-dataclass rows.
``python -m repro run <name>`` renders them as a table, and
``tests/eval`` asserts each experiment's shape claims at reduced sizes.
"""

from repro.eval.stats import reduction_pct, summarize
from repro.eval.tables import format_table, series_block

__all__ = [
    "format_table",
    "reduction_pct",
]
