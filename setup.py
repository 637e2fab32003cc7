"""Setup shim for installs that cannot build a wheel.

All metadata lives in ``pyproject.toml``; ``setup()`` reads it from
there.  ``pip install .`` builds through ``pyproject.toml`` alone.  On
a host without network access and without the ``wheel`` package, pip
cannot build, and ``python setup.py develop`` installs the package in
place instead, with the same name, dependencies and ``repro-pcs``
command.
"""

from setuptools import setup

setup()
