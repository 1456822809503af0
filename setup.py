"""Package metadata for ``pip install -e .``: the ``repro`` package
under ``src/`` and its runtime requirements.  The version is read from
``src/repro/__init__.py``."""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of the Diversification population protocol "
        "(diversity, fairness and sustainability)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy", "networkx"],
)
