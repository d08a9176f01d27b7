"""Setuptools shim.

This file is the canonical dependency record: CI installs the package with
``pip install -e .[dev]`` and keys its pip cache off this file, so runtime
dependencies and the dev toolchain are pinned in exactly one place.  It also
keeps editable installs working in offline environments whose
setuptools/pip combination lacks PEP 660 support (``pip install -e .
--no-build-isolation --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "PolicySmith reproduction: LLM-driven synthesis of instance-optimal "
        "systems policies (HotNets '25)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy is a *core* dependency, not a dev extra: the synthetic trace
    # generators, the trace sidecar decode (traces/streaming.py) and the
    # columnar Trace form import it at runtime (the DSL backends and the
    # evaluation store do not).  1.24 is the tested minimum; the suite is
    # routinely exercised against numpy 2.x (2.4.6 in CI).
    install_requires=["numpy>=1.24"],
    extras_require={
        # Everything CI needs on top of the runtime dependencies: the test
        # stack for the tier-1 suite and benchmarks, plus the pinned linter
        # (pin ruff exactly -- lint output must not drift between local runs
        # and CI).
        "dev": [
            "pytest>=8",
            "hypothesis>=6",
            "ruff==0.9.6",
        ],
    },
)
