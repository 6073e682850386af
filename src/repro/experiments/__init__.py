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

from repro.common.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".runner": ("RunArtifacts",),
        ".registry": (
            "REGISTRY",
            "Experiment",
            "ExperimentContext",
            "experiment_names",
            "get_experiment",
        ),
        ".store": ("ResultStore", "StoredRun", "default_store_root", "run_key"),
        ".ablations": (
            "format_kill_switch",
            "run_page_size_ablation",
            "run_kill_switch_ablation",
            "format_page_size_ablation",
            "PageSizeAblationPoint",
            "KillSwitchResult",
        ),
        ".policy_sweep": ("PolicySweepResult", "run_policy_sweep"),
        ".tables": (
            "run_table1",
            "run_table2",
            "run_table4",
            "run_table5",
            "format_table1",
            "format_table2",
            "format_table4",
            "format_table5",
            "Table2Row",
            "Table5Row",
        ),
        ".table3": ("run_table3", "format_table3"),
        ".topdown_figures": (
            "run_figure1",
            "run_figure2",
            "format_topdown_rows",
            "TopDownRow",
        ),
        ".figure3": ("run_figure3", "format_figure3", "ReuseRow"),
        ".figure6": ("run_figure6", "format_figure6"),
        ".figure7": ("run_figure7", "format_figure7", "CoverageRow"),
        ".figure8": ("run_figure8", "format_figure8", "ThresholdPoint"),
        ".figure9": (
            "run_figure9a",
            "run_figure9b",
            "format_figure9a",
            "format_figure9b",
            "SizeSweepPoint",
            "AssociativityPoint",
        ),
    },
)
