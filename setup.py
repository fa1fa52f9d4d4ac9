"""Build script for the compiled IoU kernel.

The extension is optional: if a C compiler is unavailable the package
installs anyway and falls back to the pure-Python kernel at import time
(see coopmot.geometry). The kernel is the hand-written C file
src/coopmot/geometry/_native.c, so a C compiler is all it needs.

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


setup(
    ext_modules=[Extension("coopmot.geometry._native",
                           sources=["src/coopmot/geometry/_native.c"],
                           include_dirs=[np.get_include()])],
    cmdclass={"build_ext": optional_build_ext},
)
