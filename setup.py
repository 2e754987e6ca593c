from setuptools import Extension, setup

# The compiled difference-logic kernel, built from the C++ that Cython
# generated from _dl_core.pyx (regenerate it with `cython -3 --cplus` after
# editing the .pyx).  It is optional: without a C++ compiler the package
# installs with its pure-Python kernel alone.
setup(ext_modules=[
    Extension("mpfjss._dl_core", ["src/mpfjss/_dl_core.cpp"], language="c++", optional=True),
])
