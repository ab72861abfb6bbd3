import numpy as np
import pytest
from hypothesis import settings

from mmvc import RadarConfig, default_pose_pair, validate_config

# Property tests draw the same examples on every run, keep no example
# database and have no per-example time limit, so the suite neither
# changes from run to run nor fails on a slow host.
settings.register_profile("mmvc", derandomize=True, database=None, deadline=None)
settings.load_profile("mmvc")

# PointCloud's per-point columns in field order, spelled out here so the
# tests check the layout instead of reading it from the library.
CLOUD_COLUMNS = (
    "positions_m",
    "velocities_mps",
    "energies",
    "ranges_m",
    "azimuths_rad",
    "elevations_rad",
    "view_codes",
    "gate_codes",
    "is_pad",
)

# PASS/FAIL verdict lines collected by the acceptance tests; echoed at the
# end of the run so a plain ``pytest -v`` shows them without ``-s``.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def config():
    return validate_config(RadarConfig())


@pytest.fixture(scope="session")
def poses():
    return default_pose_pair()


def tone_cube(config, range_bin=0.0, doppler_bins=0.0, amp=1.0, phases=(0.0, 0.0)):
    """Raw cube holding one complex tone at the given fractional bins.

    ``phases`` are extra per-antenna phase offsets for channels 1 and 2
    (channel 0 stays at zero), mimicking plane-wave arrival.
    """
    ns = config.samples_per_chirp
    nc = config.chirps_per_frame
    n = np.arange(ns)
    k = np.arange(nc)
    fast = np.exp(2j * np.pi * range_bin * n / ns)
    slow = np.exp(2j * np.pi * doppler_bins * k / nc)
    base = amp * slow[:, None] * fast[None, :]
    cube = np.stack(
        [base, base * np.exp(1j * phases[0]), base * np.exp(1j * phases[1])]
    )
    return cube.astype(np.complex64)
