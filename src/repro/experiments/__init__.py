"""Experiment harness: one module per table/figure of the paper.

Every module is registered in :mod:`repro.experiments.registry` under the
name the ``repro`` CLI uses (``repro run figure3``), and every simulation
can be cached in the on-disk :mod:`repro.experiments.store`.

===========  =====================================================
Experiment    Entry point
===========  =====================================================
Table 1       :func:`repro.experiments.tables.run_table1`
Table 2       :func:`repro.experiments.tables.run_table2`
Figure 1      :func:`repro.experiments.topdown_figures.run_figure1`
Figure 2      :func:`repro.experiments.topdown_figures.run_figure2`
Figure 3      :func:`repro.experiments.figure3.run_figure3`
Figure 6      :func:`repro.experiments.figure6.run_figure6`
Table 3       :func:`repro.experiments.table3.run_table3`
Table 4       :func:`repro.experiments.tables.run_table4`
Figure 7      :func:`repro.experiments.figure7.run_figure7`
Figure 8      :func:`repro.experiments.figure8.run_figure8`
Figure 9      :func:`repro.experiments.figure9.run_figure9a` / ``run_figure9b``
Table 5       :func:`repro.experiments.tables.run_table5`
===========  =====================================================
"""

from repro.experiments.ablations import (
    KillSwitchResult,
    PageSizeAblationPoint,
    format_kill_switch,
    format_page_size_ablation,
    run_kill_switch_ablation,
    run_page_size_ablation,
)
from repro.experiments.figure3 import ReuseRow, format_figure3, run_figure3
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.figure7 import CoverageRow, format_figure7, run_figure7
from repro.experiments.figure8 import ThresholdPoint, format_figure8, run_figure8
from repro.experiments.figure9 import (
    AssociativityPoint,
    SizeSweepPoint,
    format_figure9a,
    format_figure9b,
    run_figure9a,
    run_figure9b,
)
from repro.experiments.runner import RunArtifacts
from repro.experiments.sweep import PolicySweepResult, run_policy_sweep
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.tables import (
    Table2Row,
    Table5Row,
    format_table1,
    format_table2,
    format_table4,
    format_table5,
    run_table1,
    run_table2,
    run_table4,
    run_table5,
)
from repro.experiments.topdown_figures import (
    TopDownRow,
    format_topdown_rows,
    run_figure1,
    run_figure2,
)

# The registry imports the experiment modules above, so it must come last.
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    ExperimentContext,
    experiment_names,
    get_experiment,
)
from repro.experiments.store import ResultStore, StoredRun, default_store_root, run_key

__all__ = [
    "RunArtifacts",
    "REGISTRY",
    "Experiment",
    "ExperimentContext",
    "experiment_names",
    "get_experiment",
    "ResultStore",
    "StoredRun",
    "default_store_root",
    "run_key",
    "format_kill_switch",
    "run_page_size_ablation",
    "run_kill_switch_ablation",
    "format_page_size_ablation",
    "PageSizeAblationPoint",
    "KillSwitchResult",
    "PolicySweepResult",
    "run_policy_sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_figure1",
    "run_figure2",
    "run_figure3",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9a",
    "run_figure9b",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_table5",
    "format_topdown_rows",
    "format_figure3",
    "format_figure6",
    "format_figure7",
    "format_figure8",
    "format_figure9a",
    "format_figure9b",
    "TopDownRow",
    "ReuseRow",
    "CoverageRow",
    "ThresholdPoint",
    "SizeSweepPoint",
    "AssociativityPoint",
    "Table2Row",
    "Table5Row",
]
