"""Build script for the compiled IoU kernel.

The extension is optional: if a C compiler is unavailable the package
installs anyway and falls back to the pure-numpy kernel at import time
(see coopmot.geometry). With Cython installed the kernel is regenerated
from _native.pyx; without it, the committed _native.c is compiled.

To compile in a source checkout:  python setup.py build_ext --inplace
"""

import numpy as np
from setuptools import setup, Extension
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            print("WARNING: compiled IoU kernel not built (%s); "
                  "pure-python fallback will be used" % exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print("WARNING: failed to build %s (%s); "
                  "pure-python fallback will be used" % (ext.name, exc))


_SOURCE = "src/coopmot/geometry/_native"
_EXTENSION = dict(name="coopmot.geometry._native", include_dirs=[np.get_include()])
try:
    from Cython.Build import cythonize
    ext_modules = cythonize([Extension(sources=[_SOURCE + ".pyx"], **_EXTENSION)],
                            language_level=3)
except ImportError:
    ext_modules = [Extension(sources=[_SOURCE + ".c"], **_EXTENSION)]

setup(
    ext_modules=ext_modules,
    cmdclass={"build_ext": optional_build_ext},
)
