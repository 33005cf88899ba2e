from setuptools import Extension, setup

# The C lane is a plain shared library (no Python C-API) that spdfp._kernels
# loads with ctypes. It is optional: where it cannot be compiled, the build
# goes on without it and the NumPy reference steps run. -ffp-contract=off
# keeps FMA out, so that both paths give the same bits. It calls libm's pow
# and exp, so it links libm itself rather than relying on the interpreter to.
setup(ext_modules=[
    Extension("spdfp._kernels._lane", ["src/spdfp/_kernels/lane.c"], optional=True,
              extra_compile_args=["-O2", "-ffp-contract=off"], libraries=["m"]),
])
