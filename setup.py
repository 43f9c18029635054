"""Setuptools metadata for the ``repro`` package.

The project metadata lives here (there is no ``pyproject.toml``).  A plain
``setup.py`` also lets ``pip install -e . --no-build-isolation
--no-use-pep517`` take the legacy ``setup.py develop`` path, which works
offline with an older setuptools/pip and no ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
