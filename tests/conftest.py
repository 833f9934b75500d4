"""Session report header: the numpy and scipy versions the suite ran on."""

import numpy as np
import scipy


def pytest_report_header(config):
    return f"numpy {np.__version__}, scipy {scipy.__version__}"
