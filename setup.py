"""Build script for the compiled IoU kernel.

The kernel is the hand-written C file src/coopmot/geometry/_native.c, so
a C compiler is all it needs. The extension is optional: if it cannot be
built, setuptools warns `building extension "coopmot.geometry._native"
failed`, the package installs anyway, and coopmot.geometry uses the
pure-Python kernel.

To compile in a source checkout:  python setup.py build_ext --inplace
"""

import numpy as np
from setuptools import setup, Extension

setup(ext_modules=[Extension("coopmot.geometry._native",
                             sources=["src/coopmot/geometry/_native.c"],
                             include_dirs=[np.get_include()], optional=True)])
