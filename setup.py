"""Legacy setup shim.

The execution environment has no network access and no `wheel` package,
so PEP 660 editable installs are unavailable; this shim lets
``pip install -e . --no-build-isolation`` use the legacy
``setup.py develop`` path.  The package metadata is declared here: the
``repro`` package lives under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
