import ctypes

import numpy  # noqa: F401  (maps OpenBLAS into the process before the header looks for it)
from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=50)
settings.load_profile("suite")


def pytest_report_header(config):
    """The OpenBLAS kernel and build the suite runs on, since the golden law residuals depend on it."""
    try:
        with open("/proc/self/maps") as maps:
            lib = ctypes.CDLL(next(line.split()[-1] for line in maps if "openblas" in line.lower()))
        core, conf = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_config64_
    except (OSError, StopIteration, AttributeError):
        return None
    core.argtypes = conf.argtypes = []
    core.restype = conf.restype = ctypes.c_char_p
    return f"openblas: core {core().decode()}, config {conf().decode()}"
