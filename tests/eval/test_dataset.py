"""Unit tests for campaign generation."""

import numpy as np
import pytest

from repro.cache import RunCache
from repro.eval import default_setup, generate_campaign
from repro.printer import ROSTOCK_MAX_V3, ULTIMAKER3


class TestDefaultSetup:
    def test_um3(self):
        setup = default_setup("UM3")
        assert setup.machine is ULTIMAKER3
        assert setup.center == (110.0, 110.0)
        assert setup.dwm_params.t_win == 4.0

    def test_rm3(self):
        setup = default_setup("RM3")
        assert setup.machine is ROSTOCK_MAX_V3
        assert setup.center == (0.0, 0.0)
        assert setup.dwm_params.t_win == 1.0
        # eta raised per the paper's convergence procedure (Section VI-C)
        assert setup.dwm_params.eta == pytest.approx(0.3)

    def test_unknown_printer(self):
        with pytest.raises(ValueError, match="unknown printer"):
            default_setup("Prusa")

    def test_job_slices_gear(self):
        job = default_setup("UM3", object_height=0.4).job()
        assert len(job.program) > 10


#: The shape of the shared ``mini_campaign`` fixture (tests/conftest.py).
MINI_KW = dict(
    channels=("ACC",), n_train=3, n_benign_test=3, n_attack_runs=1, seed=42
)


@pytest.fixture(scope="module")
def warm_mini_cache(tmp_path_factory):
    """A RunCache holding every run of the ``mini_campaign`` fixture."""
    cache = RunCache(tmp_path_factory.mktemp("mini-cache"))
    generate_campaign(
        default_setup("UM3", object_height=0.4), cache=cache, **MINI_KW
    )
    return cache


def _memmap_backed(array) -> bool:
    while isinstance(array, np.ndarray) and not isinstance(array, np.memmap):
        array = array.base
    return isinstance(array, np.memmap)


class TestCampaign(object):
    """The campaign views over a materialized campaign (the default).

    :class:`TestLazyCampaign` runs every case again over a
    ``materialize=False`` campaign.
    """

    materialize = True

    def test_structure(self, mini_campaign):
        assert mini_campaign.reference.label == "Reference"
        assert len(mini_campaign.training) == 3
        assert len(mini_campaign.benign_test) == 3
        assert set(mini_campaign.malicious_test) == {
            "Void", "InfillGrid", "Speed0.95", "Layer0.3", "Scale0.95",
        }
        assert mini_campaign.n_malicious_test == 5

    def test_channels(self, mini_campaign):
        assert mini_campaign.channels == ("ACC",)
        for run in mini_campaign.training:
            assert set(run.signals) == {"ACC"}

    def test_labels(self, mini_campaign):
        assert all(not r.is_malicious for r in mini_campaign.benign_test)
        for name, runs in mini_campaign.malicious_test.items():
            assert all(r.is_malicious for r in runs)
            assert all(r.label == name for r in runs)

    def test_all_malicious_flattens(self, mini_campaign):
        assert len(mini_campaign.all_malicious()) == 5

    def test_time_noise_varies_durations(self, mini_campaign):
        durations = [r.duration for r in mini_campaign.training]
        durations += [r.duration for r in mini_campaign.benign_test]
        assert len(set(durations)) > 1

    def test_layer_times_recorded(self, mini_campaign):
        # 0.4 mm object at 0.2 mm layers -> 2 layers -> 1 layer change
        assert len(mini_campaign.reference.layer_times) == 1

    def test_view_semantics(self, mini_campaign):
        training = mini_campaign.training
        assert len(training) == 3
        last = training[2].signals["ACC"].data
        assert np.array_equal(training[-1].signals["ACC"].data, last)
        tail = training[1:]
        assert len(tail) == 2
        assert np.array_equal(tail[-1].signals["ACC"].data, last)
        assert training[5:] == []
        for index in (3, -4):
            with pytest.raises(IndexError):
                training[index]
        assert len(mini_campaign.malicious_test["Void"]) == 1

    def test_role_layout(self, mini_campaign):
        n = len(mini_campaign.requests)
        roles = [mini_campaign.role_of(i) for i in range(n)]
        assert roles[0] == "reference"
        assert roles[1:4] == ["training"] * 3
        assert roles[4:7] == ["benign"] * 3
        assert roles[7:] == ["malicious"] * 5

    def test_iter_runs_follows_role_of(self, mini_campaign):
        streamed = list(mini_campaign.iter_runs())
        assert [role for role, _ in streamed] == [
            mini_campaign.role_of(i) for i in range(len(streamed))
        ]
        assert [run.label for _, run in streamed] == [
            request.label for request in mini_campaign.requests
        ]

    def test_reproducible_with_same_seed(self):
        setup = default_setup("UM3", object_height=0.4)
        kwargs = dict(
            channels=("ACC",), n_train=1, n_benign_test=1, n_attack_runs=1,
            seed=7, materialize=self.materialize,
        )
        a = generate_campaign(setup, **kwargs)
        b = generate_campaign(setup, **kwargs)
        assert np.allclose(
            a.reference.signals["ACC"].data, b.reference.signals["ACC"].data
        )

    def test_different_seeds_differ(self):
        setup = default_setup("UM3", object_height=0.4)
        kwargs = dict(
            channels=("ACC",), n_train=0, n_benign_test=0, n_attack_runs=0,
            materialize=self.materialize,
        )
        a = generate_campaign(setup, seed=1, **kwargs)
        b = generate_campaign(setup, seed=2, **kwargs)
        assert not np.allclose(
            a.reference.signals["ACC"].data[:1000],
            b.reference.signals["ACC"].data[:1000],
        )


class TestLazyCampaign(TestCampaign):
    """Every :class:`TestCampaign` case over a ``materialize=False`` one."""

    materialize = False

    @pytest.fixture
    def mini_campaign(self, warm_mini_cache):
        return generate_campaign(
            default_setup("UM3", object_height=0.4),
            cache=warm_mini_cache,
            materialize=False,
            **MINI_KW,
        )


class TestWarmMaterializedCampaign:
    def test_memmap_backed_and_equal_to_cold(
        self, mini_campaign, warm_mini_cache
    ):
        warm = generate_campaign(
            default_setup("UM3", object_height=0.4),
            cache=warm_mini_cache,
            **MINI_KW,
        )
        assert warm.engine.stats.simulated == 0
        cold_runs = [run for _, run in mini_campaign.iter_runs()]
        warm_runs = [run for _, run in warm.iter_runs()]
        assert len(warm_runs) == len(cold_runs) == 12
        for cold, hit in zip(cold_runs, warm_runs):
            assert _memmap_backed(hit.signals["ACC"].data)
            assert not _memmap_backed(cold.signals["ACC"].data)
            assert hit.label == cold.label
            assert hit.layer_times == cold.layer_times
            assert np.array_equal(
                hit.signals["ACC"].data, cold.signals["ACC"].data
            )


class TestReferenceFromGcode:
    def test_simulated_reference_usable_for_detection(self):
        """Paper §IV: the reference may be simulated from the G-code file.
        An IDS trained on physical (noisy) runs against that simulated
        reference must still accept benign prints and catch an attack."""
        import numpy as np

        from repro.attacks import SpeedAttack
        from repro.core import NsyncIds
        from repro.eval import default_setup, reference_from_gcode, run_process
        from repro.sync import DwmSynchronizer

        setup = default_setup("UM3", object_height=0.4)
        job = setup.job()
        reference = reference_from_gcode(setup, job.program, "ACC")
        assert reference.n_samples > 0

        ids = NsyncIds(reference, DwmSynchronizer(setup.dwm_params))
        training = [
            run_process(setup, job, "Benign", False, seed, channels=["ACC"])
            for seed in range(1, 7)
        ]
        ids.fit([run.signals["ACC"] for run in training], r=0.5)

        benign = run_process(setup, job, "Benign", False, 50, channels=["ACC"])
        assert not ids.detect(benign.signals["ACC"]).is_intrusion

        attacked_job = SpeedAttack(factor=0.9).apply(job)
        attacked = run_process(
            setup, attacked_job, "Speed", True, 60, channels=["ACC"]
        )
        assert ids.detect(attacked.signals["ACC"]).is_intrusion
