import pytest

from sweepnav import BandPlan


@pytest.fixture
def small_plan():
    return BandPlan.uniform(low_mhz=0.0, high_mhz=10.0, width_mhz=1.0)


STATIC_SCENARIO_TEXT = """\
# stationary receiver, six known transmitters, no shadowing
seed = 5
speed_mps = 10
cadence_s = 1
hold_s = 29
shadowing_sigma_db = 0
n_pl = 2.8
waypoints = 0,0; 0,0
transmitters = 300,0,43,700.5; 0,300,43,800.5; -300,0,43,900.5; 0,-300,43,1800.5; 200,200,43,2100.5; -200,-200,43,2600.5
"""

ROUTE_SCENARIO_TEXT = """\
seed = 5
speed_mps = 10
cadence_s = 1
shadowing_sigma_db = 0
n_pl = 2.8
waypoints = 0,0; 100,0; 100,100
transmitters = 300,0,43,700.5; 0,300,43,800.5; -300,0,43,900.5; 0,-300,43,1800.5; 200,200,43,2100.5; -200,-200,43,2600.5
"""


@pytest.fixture
def static_scenario_file(tmp_path):
    path = tmp_path / "static_scenario.txt"
    path.write_text(STATIC_SCENARIO_TEXT, encoding="ascii")
    return path


@pytest.fixture
def route_scenario_file(tmp_path):
    path = tmp_path / "route_scenario.txt"
    path.write_text(ROUTE_SCENARIO_TEXT, encoding="ascii")
    return path
