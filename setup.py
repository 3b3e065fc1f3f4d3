"""Setuptools shim.

The repository has no ``pyproject.toml`` or ``setup.cfg``; the code runs
from the source tree with ``PYTHONPATH=src`` (see the README).  This file
lets ``pip install -e . --no-use-pep517`` (the legacy editable install
path) work on machines without the ``wheel`` package or network access:
with no arguments, setuptools' automatic discovery finds the ``repro``
package under ``src/`` (the distribution itself is unnamed).
"""

from setuptools import setup

setup()
