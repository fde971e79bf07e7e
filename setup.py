"""Packaging metadata for the ``repro`` library (src layout).

A plain ``setup.py`` rather than ``pyproject.toml`` keeps editable
installs working without the ``wheel`` package (setuptools' PEP-660
editable path needs bdist_wheel).  The version is read from
``src/repro/__init__.py`` so it has one source."""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
