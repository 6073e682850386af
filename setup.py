"""Package metadata and the ``repro`` console entry point.

Install editable with ``pip install -e .``; that puts the ``repro`` command
on PATH (``repro list`` / ``repro run figure3`` / ...).  Without installing,
the same CLI is reachable as ``PYTHONPATH=src python -m repro.cli``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-trrip",
    version="0.3.0",
    description=(
        "Reproduction of TRRIP: temperature-based code-cache replacement "
        "via a compiler/OS/hardware co-design (simulator + experiments)"
    ),
    python_requires=">=3.10",
    # The simulator is dependency-free; NumPy only backs Figure 7's
    # costly-miss percentile ranking (repro.analysis.coverage).
    extras_require={"figure7": ["numpy"]},
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro=repro.cli.main:main",
        ]
    },
)
