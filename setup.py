from setuptools import Extension, setup

# The compiled difference-logic kernel, hand-written C++ over the CPython API
# (keep it in step with its pure twin, _dl_pure.py).  It is optional: without
# a C++ compiler the package installs with its pure-Python kernel alone.
setup(ext_modules=[
    Extension("mpfjss._dl_core", ["src/mpfjss/_dl_core.cpp"], language="c++", optional=True),
])
