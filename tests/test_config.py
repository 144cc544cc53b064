from pathlib import Path

import numpy as np
import pytest

from sweepnav import (
    BandPlan,
    ConfigError,
    EkfTracker,
    NoiseConfig,
    PathLossParams,
    PipelineConfig,
    Scenario,
    SmootherConfig,
    Transmitter,
)
from sweepnav.config import (
    CONFIG_FIELDS,
    config_from_values,
    load_config,
    load_scenario,
    parse_kv_file,
)
from sweepnav.pipeline import assign_anchor_frame
from sweepnav.simulator import DEFAULT_TX_BBOX, DEFAULT_TX_FREQS_MHZ, auto_scenario, route_scenario

FULL_CONFIG = """\
# pipeline configuration
band.low_mhz = 0
band.high_mhz = 3500
band.width_mhz = 1.0
band.count = 5
sweep.window = 5
n_pl = 3.0
tx_power_dbm = 40
smoother.window = 4
smoother.weights = 1,2,3,4
ekf.q_diag = 0.2,0.2
ekf.r = 0.5
anchor.seed = 9
anchor.bbox = -100,-100,100,100
"""


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_file(tmp_path):
    """The README's pipeline-config block, written out as it stands."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Pipeline config keys", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    return path


class TestPipelineConfigFile:
    def test_readme_block_is_the_default_config(self, tmp_path):
        path = readme_config_file(tmp_path)
        assert set(parse_kv_file(path)) == set(CONFIG_FIELDS)
        assert load_config(path) == load_config()

    def test_defaults(self):
        config = load_config()
        assert config.sweep_window == 10
        assert config.pathloss.exponent == 2.8
        assert config.pathloss.tx_power_dbm == 43.0
        assert config.smoother.window == 3
        assert config.noise.r == 0.01
        np.testing.assert_array_equal(config.noise.q, np.eye(2) * 0.1)
        assert config.band_count == 6

    def test_full_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(FULL_CONFIG, encoding="ascii")
        config = load_config(path)
        assert config.band_count == 5 and config.sweep_window == 5
        assert config.pathloss.exponent == 3.0
        assert config.smoother.weights == (1.0, 2.0, 3.0, 4.0)
        assert config.noise.r == 0.5
        assert config.anchor_seed == 9
        assert config.anchor_bbox == (-100.0, -100.0, 100.0, 100.0)

    def test_window_zero_means_unbounded(self):
        assert config_from_values({"sweep.window": "0"}).sweep_window is None

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_values({"bogus": "1"})

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="n_pl"):
            config_from_values({"n_pl": "fast"})

    def test_bad_q_diag(self):
        with pytest.raises(ConfigError, match="q_diag"):
            config_from_values({"ekf.q_diag": "1,2,3"})

    def test_invalid_exponent_becomes_config_error(self):
        with pytest.raises(ConfigError):
            config_from_values({"n_pl": "9.0"})

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("n_pl = 2.8\nn_pl = 2.9\n", encoding="ascii")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("just words\n", encoding="ascii")
        with pytest.raises(ConfigError):
            parse_kv_file(path)


class TestScenarioFile:
    def test_explicit_transmitters(self, static_scenario_file):
        scenario = load_scenario(static_scenario_file)
        assert len(scenario.transmitters) == 6
        assert scenario.transmitters[0].freq_mhz == 700.5
        assert scenario.hold_s == 29.0
        assert scenario.shadowing_sigma_db == 0.0
        assert scenario.tx_bbox is None

    def test_auto_placement_matches_pipeline_anchor_frame(self, tmp_path):
        text = (
            "seed = 13\n"
            "waypoints = 0,0; 100,0\n"
            "tx.bbox = -200,-200,200,200\n"
            "tx.freqs_mhz = 700.5,800.5,900.5,1800.5\n"
            "tx.power_dbm = 43\n"
        )
        path = tmp_path / "auto.txt"
        path.write_text(text, encoding="ascii")
        scenario = load_scenario(path)
        assert scenario.tx_bbox == (-200.0, -200.0, 200.0, 200.0)

        anchors = assign_anchor_frame([700, 800, 900, 1800], seed=13, bbox=scenario.tx_bbox)
        placed = {a.band_id: (a.x, a.y) for a in anchors}
        for tx in scenario.transmitters:
            assert placed[int(tx.freq_mhz)] == (tx.x, tx.y)

    def test_tx_recipe_builds_the_route_presets_layout(self, tmp_path):
        # the recipe and the presets share one builder: the route preset's carriers, box and seed at the
        # default power place the same transmitters
        path = tmp_path / "auto.txt"
        path.write_text(
            f"seed = 13\nwaypoints = 0,0; 100,0\ntx.bbox = {','.join(map(repr, DEFAULT_TX_BBOX))}\n"
            f"tx.freqs_mhz = {','.join(map(repr, DEFAULT_TX_FREQS_MHZ))}\n",
            encoding="ascii",
        )
        scenario = load_scenario(path)
        assert scenario.transmitters == route_scenario(13).transmitters
        assert (scenario.seed, scenario.tx_bbox) == (13, DEFAULT_TX_BBOX)

    @pytest.mark.parametrize("recipe", [
        "tx.freqs_mhz = 700.5,800.5,900.5\ntx.bbox = -200,-200,200,200\n", "tx.power_dbm = 40\n",
    ])
    def test_transmitters_and_a_tx_recipe_conflict(self, static_scenario_file, tmp_path, recipe):
        # the explicit layout used to win silently, dropping the recipe with no message
        path = tmp_path / "both.txt"
        path.write_text(static_scenario_file.read_text(encoding="ascii") + recipe, encoding="ascii")
        with pytest.raises(ConfigError, match=r"both 'transmitters' and tx\.") as raised:
            load_scenario(path)
        assert all(line.split(" = ")[0] in str(raised.value) for line in recipe.splitlines())

    def test_missing_waypoints(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("seed = 1\n", encoding="ascii")
        with pytest.raises(ConfigError, match="waypoints"):
            load_scenario(path)

    def test_too_few_transmitters(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "waypoints = 0,0; 10,0\ntransmitters = 1,1,43,700.5; 2,2,43,800.5\n",
            encoding="ascii",
        )
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_bad_waypoint_point(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "waypoints = 0,0; nope\ntransmitters = 1,1,43,700.5; 2,2,43,800.5; 3,3,43,900.5; 4,4,43,950.5\n",
            encoding="ascii",
        )
        with pytest.raises(ConfigError, match="waypoints"):
            load_scenario(path)

    def test_reseeding_auto_scenario_moves_transmitters(self, tmp_path):
        text = (
            "seed = 13\n"
            "waypoints = 0,0; 100,0\n"
            "tx.bbox = -200,-200,200,200\n"
            "tx.freqs_mhz = 700.5,800.5,900.5,1800.5\n"
        )
        path = tmp_path / "auto.txt"
        path.write_text(text, encoding="ascii")
        scenario = load_scenario(path)
        reseeded = load_scenario(path, 14)
        assert reseeded.seed == 14
        assert reseeded.transmitters != scenario.transmitters

    def test_reseeding_explicit_scenario_keeps_transmitters(self, static_scenario_file):
        scenario = load_scenario(static_scenario_file)
        reseeded = load_scenario(static_scenario_file, 99)
        assert reseeded.seed == 99
        assert reseeded.transmitters == scenario.transmitters

    def test_lead_in_key(self, tmp_path):
        text = (
            "waypoints = 0,0; 100,0\n"
            "lead_in_m = 50\n"
            "transmitters = 1,1,43,700.5; 2,2,43,800.5; 3,3,43,900.5; 4,4,43,950.5\n"
        )
        path = tmp_path / "lead.txt"
        path.write_text(text, encoding="ascii")
        assert load_scenario(path).lead_in_m == 50.0


FOUR_TRANSMITTERS = [Transmitter(100.0 * k, 50.0 * k * k, 43.0, 700.5 + 100.0 * k) for k in range(4)]
WAYPOINTS = ((0.0, 0.0), (100.0, 0.0))

# one bad value per configuration object: (what builds it, a fragment of the message)
BAD_SETTINGS = {
    "plan width": (lambda: BandPlan(0.0, 3500.0, 0.0), "invalid uniform plan bounds"),
    "path-loss exponent": (lambda: PathLossParams(exponent=1.0), "path-loss exponent"),
    "smoother window": (lambda: SmootherConfig(window=0), "smoother window must be 1..1000000"),
    "smoother window fraction": (lambda: SmootherConfig(window=2.5), "smoother window must be an integer, got 2.5"),
    "noise r": (lambda: NoiseConfig(r=0.0), "R must be positive and finite"),
    "noise q": (lambda: NoiseConfig(q=((1.0, 0.0), (0.0, -0.5))), "Q must be finite, symmetric"),
    "tracker p0": (lambda: EkfTracker((0, 0), ((1, 2), (3, 4)), NoiseConfig()), "P0 must be finite, symmetric"),
    "sweep window": (lambda: PipelineConfig(sweep_window=-3), "sweep_window must be positive or None"),
    "sweep window fraction": (lambda: PipelineConfig(sweep_window=2.5), "sweep_window must be an integer, got 2.5"),
    "anchor bbox": (lambda: PipelineConfig(anchor_bbox=(0, 0, 0, 0)), "bounding box must have positive area"),
    "anchor bbox of three numbers": (lambda: PipelineConfig(anchor_bbox=(0, 0, 1)), "bounding box must be four numbers"),
    "anchor bbox None": (lambda: PipelineConfig(anchor_bbox=None), "bounding box must be four numbers"),
    # text would pass as a sequence of one-character numbers: "0011" as the box (0, 0, 1, 1)
    "anchor bbox text": (lambda: PipelineConfig(anchor_bbox="0011"), "bounding box must be four numbers"),
    "anchor bbox bytes": (lambda: PipelineConfig(anchor_bbox=b"0011"), "bounding box must be four numbers"),
    "smoother weights text": (lambda: SmootherConfig(window=2, weights="12"), "weights must be a sequence of numbers"),
    "smoother weights not numbers": (lambda: SmootherConfig(window=2, weights=("a", "b")),
                                     "weights must be a sequence of numbers"),
    "smoother weights not a sequence": (lambda: SmootherConfig(window=2, weights=3),
                                        "weights must be a sequence of numbers"),
    "band count": (lambda: PipelineConfig(band_count=3), "band_count must be 4 to 3500"),
    "band count fraction": (lambda: PipelineConfig(band_count=6.5), "band_count must be an integer, got 6.5"),
    "anchor seed": (lambda: PipelineConfig(anchor_seed=-1), "anchor seed -1 is negative"),
    "anchor seed fraction": (lambda: PipelineConfig(anchor_seed=1.5), "anchor_seed must be an integer, got 1.5"),
    "scenario speed": (lambda: Scenario(FOUR_TRANSMITTERS, WAYPOINTS, speed_mps=0.0), "speed must be positive"),
    "scenario seed fraction": (lambda: Scenario(FOUR_TRANSMITTERS, WAYPOINTS, seed=0.5), "seed must be an integer"),
    "auto_scenario box": (
        lambda: auto_scenario(DEFAULT_TX_FREQS_MHZ, 0, (0.0, 0.0, 1.0, float("inf")), waypoints=WAYPOINTS),
        "bounding box must be finite",
    ),
    "preset tx_count fraction": (lambda: route_scenario(0, tx_count=4.5), "tx_count must be an integer, got 4.5"),
    "auto_scenario seed fraction": (
        lambda: auto_scenario(DEFAULT_TX_FREQS_MHZ, 0.5, DEFAULT_TX_BBOX, waypoints=WAYPOINTS),
        "seed must be an integer, got 0.5",
    ),
}


class TestConfigurationErrors:
    """A configuration object raises ConfigError for its own bad values, where it checks them;
    per-call inputs (ranges, timesteps, a direct SweepWindow length) raise ValueError."""

    @pytest.mark.parametrize("make, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
    def test_bad_setting_is_a_config_error(self, make, message):
        with pytest.raises(ConfigError) as raised:
            make()
        assert message in str(raised.value)
        assert not isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("bbox", [[0, 0, 1, 1], np.array([0, 0, 1, 1]), (0, 0, 1, 1)], ids=["list", "array", "ints"])
    def test_anchor_bbox_is_stored_as_the_checked_tuple(self, bbox):
        config = PipelineConfig(anchor_bbox=bbox)
        assert config.anchor_bbox == (0.0, 0.0, 1.0, 1.0) and type(config.anchor_bbox) is tuple
        assert all(type(v) is float for v in config.anchor_bbox)
        assert config == PipelineConfig(anchor_bbox=(0.0, 0.0, 1.0, 1.0))
        assert hash(config) == hash(PipelineConfig(anchor_bbox=(0.0, 0.0, 1.0, 1.0)))

    def test_numpy_integers_are_integers(self):
        config = PipelineConfig(band_count=np.int64(5), sweep_window=np.int32(3), anchor_seed=np.int64(2),
                                smoother=SmootherConfig(window=np.int64(4)))
        assert config == PipelineConfig(band_count=5, sweep_window=3, anchor_seed=2, smoother=SmootherConfig(window=4))
        assert Scenario(FOUR_TRANSMITTERS, WAYPOINTS, seed=np.int64(3)).seed == 3
