"""Shim so `pip install -e .` works on environments without the wheel package.

numpy is the one runtime requirement: the Monte Carlo sampler, the
batched circuit sweeps and the hardness reductions all import it.
"""
from setuptools import setup

setup(name="repro", install_requires=["numpy"])
