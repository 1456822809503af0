"""``setup.py`` carries the package metadata, so ``pip install -e .``
installs ``repro`` with its modules rather than a nameless package."""

import subprocess
import sys
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[2]


def test_setup_names_the_package_and_its_version():
    shown = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO, capture_output=True, text=True, check=True,
    )
    assert shown.stdout.split() == ["repro", repro.__version__]
