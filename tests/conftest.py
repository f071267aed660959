import ctypes
import glob
import os

import numpy as np


def _openblas_core() -> str:
    """The kernel core that numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*")
    corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
    if corename is None:
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    # the sweep digests hash np.matmul results, whose last bits follow the core
    return [
        f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}; the sweep byte pins "
        "were recorded on SkylakeX, so a pin failure on another core is a kernel difference",
    ]
