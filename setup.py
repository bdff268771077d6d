"""Setuptools shim for offline editable installs.

All metadata lives in ``pyproject.toml``.  With setuptools older than 70
and no ``wheel`` package, ``pip install -e .`` cannot build the PEP 660
editable wheel; this file keeps the legacy path open::

    python setup.py develop
"""

from setuptools import setup

setup()
