"""Package metadata and the ``repro`` console entry point.

Install editable with ``pip install -e .``; that puts the ``repro`` command
on PATH (``repro list`` / ``repro run figure3`` / ...).  Without installing,
the same CLI is reachable as ``PYTHONPATH=src python -m repro.cli``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def package_version() -> str:
    """``repro.__version__``, read as text: building must not import it."""
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    return re.search(
        r'^__version__ = "([^"]+)"$', init.read_text(encoding="utf-8"), re.M
    ).group(1)


setup(
    name="repro-trrip",
    version=package_version(),
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
