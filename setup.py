"""Legacy build shim: all metadata lives in pyproject.toml (the version
is read from ``repro.__version__``)."""

from setuptools import setup

setup(package_data={"repro": ["py.typed"]})
