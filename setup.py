"""Package metadata and the ``art9`` console entry point.

Install with ``pip install -e .`` (or ``python setup.py develop`` with
older tooling).  The package has no runtime dependencies; the version is
read from ``src/repro/__init__.py`` without importing the package.
"""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.dirname(os.path.abspath(__file__))


def _version() -> str:
    path = os.path.join(_HERE, "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"$', handle.read(), re.M)
    if match is None:
        raise RuntimeError(f"no __version__ line in {path}")
    return match.group(1)


setup(
    name="repro",
    version=_version(),
    description="ART-9 balanced-ternary RISC processor: design and "
                "evaluation frameworks",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    entry_points={"console_scripts": ["art9 = repro.cli:main"]},
)
