"""Setup shim.

The repository declares no package metadata: there is no
``pyproject.toml``, and ``setup()`` below takes no arguments, so
``python setup.py --name`` prints ``UNKNOWN`` and an install carries no
package.  The code runs from the source tree with ``PYTHONPATH=src``
(see README.md).
"""

from setuptools import setup

setup()
