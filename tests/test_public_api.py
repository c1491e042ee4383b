"""The public API surface: everything advertised must import and work."""

import importlib

import pytest

import repro


class TestTopLevelNamespace:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.signals",
            "repro.sync",
            "repro.core",
            "repro.printer",
            "repro.slicer",
            "repro.attacks",
            "repro.sensors",
            "repro.baselines",
            "repro.eval",
            "repro.faults",
            "repro.io",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        assert mod.__all__, module
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_key_symbols_at_top_level(self):
        for name in (
            "Signal",
            "DwmSynchronizer",
            "NsyncIds",
            "PrintJob",
            "TABLE_I_ATTACKS",
            "simulate_print",
            "default_daq",
            "gear_outline",
            "UM3_DWM_PARAMS",
            "RM3_DWM_PARAMS",
        ):
            assert name in repro.__all__, name

    def test_legacy_detector_surface_still_imports(self):
        """The detector import paths and signatures keep working.

        `NsyncIds` is the batch entry point over
        `repro.core.engine.DetectionEngine` and opens the real-time engine
        (`NsyncIds.engine()`); the removed streaming facade and
        `AnalysisResult` must stay gone (`analyze` returns `EngineResult`).
        """
        import inspect
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import TRUNCATED_WINDOW_DISTANCE
            from repro.core.engine import Alert, EngineResult
            from repro.core.pipeline import NsyncIds

        assert TRUNCATED_WINDOW_DISTANCE == 2.0
        batch = inspect.signature(NsyncIds.__init__)
        assert list(batch.parameters) == [
            "self", "reference", "synchronizer", "metric",
            "filter_window", "policy",
        ]
        engine = inspect.signature(NsyncIds.engine)
        assert list(engine.parameters) == ["self", "armed", "stream_id"]
        assert inspect.signature(NsyncIds.analyze).return_annotation in (
            EngineResult, "EngineResult",
        )
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.streaming")
        import repro.core

        assert not hasattr(repro.core, "StreamingNsyncIds")
        assert not hasattr(repro.core, "AnalysisResult")
        alert_fields = [
            f.name for f in __import__("dataclasses").fields(Alert)
        ]
        assert alert_fields == [
            "window_index", "submodule", "value", "threshold", "time_s",
        ]

    def test_docstrings_everywhere_public(self):
        """Every public module, class, and function carries a docstring."""
        import inspect

        missing = []
        for module_name in (
            "repro.signals.signal",
            "repro.signals.metrics",
            "repro.sync.dwm",
            "repro.sync.tde",
            "repro.core.engine",
            "repro.core.pipeline",
            "repro.core.discriminator",
            "repro.core.health",
            "repro.faults.models",
            "repro.faults.campaign",
            "repro.printer.firmware",
            "repro.slicer.slicer",
            "repro.sensors.daq",
            "repro.baselines.moore",
            "repro.eval.experiments",
        ):
            mod = importlib.import_module(module_name)
            if not mod.__doc__:
                missing.append(module_name)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module_name}.{name}")
        assert not missing, f"undocumented public items: {missing}"
