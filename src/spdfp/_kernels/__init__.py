"""Kernel backend selection.

The compiled Cython core is used when it was built; otherwise the pure-NumPy
implementation takes over.
"""

try:
    from spdfp._kernels._core import (  # noqa: F401
        csr_matvec_range,
        csr_rmatvec_range,
        soft_threshold,
    )
    BACKEND = "cython"
except ImportError:
    from spdfp._kernels._numpy import (  # noqa: F401
        csr_matvec_range,
        csr_rmatvec_range,
        soft_threshold,
    )
    BACKEND = "numpy"


def backend():
    """Name of the kernel lane in use: 'cython' or 'numpy'."""
    return BACKEND
