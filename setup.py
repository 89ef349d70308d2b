"""Package metadata (there is no pyproject.toml; this file is all of it).

``pip install -e . --no-use-pep517`` works offline without the ``wheel``
package.  The exact service needs the standard library only, which
``tests/test_import_closure.py`` and CI's ``no-float`` leg verify; the
float backend (``"backend": "scipy"``) is the ``float`` extra.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        "float": ["numpy", "scipy"],
        "test": ["pytest", "hypothesis", "numpy", "scipy", "networkx"],
    },
)
