"""Build script: compiles the optional fast field backend.

With Cython present the extension is generated from _fast.pyx; without it the
committed, generated _fast.c is compiled as it stands.  The extension is
optional: if it fails to build, the package is still fully functional and the
field package falls back to the pure-Python backend at import time.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/silmarils/field/_fast.pyx"],
        language_level=3,
    )
except ImportError:
    ext_modules = [
        Extension(
            "silmarils.field._fast", ["src/silmarils/field/_fast.c"], optional=True
        )
    ]

setup(ext_modules=ext_modules)
