"""The ``as_dict`` contract, and the legacy shims are gone."""

import json

import pytest

from repro.results import LoopReport, Verdict, VerificationReport


class TestReportRoundTrip:
    """``as_dict`` is what ``--telemetry`` writes: plain JSON values that
    read back unchanged."""

    @staticmethod
    def round_trip(report):
        data = report.as_dict()
        assert json.loads(json.dumps(data)) == data
        return data

    @pytest.mark.parametrize("verdict", list(Verdict))
    def test_verification_report(self, verdict):
        report = VerificationReport(
            requirement="reach-sink",
            verdict=verdict,
            epoch="epoch-3",
            time=1.25,
            detail="ec 4 violated",
            witness=[3, 1, 2],
        )
        assert self.round_trip(report) == {
            "kind": "verification",
            "requirement": "reach-sink",
            "verdict": verdict.value,
            "epoch": "epoch-3",
            "time": 1.25,
            "detail": "ec 4 violated",
            "witness": [3, 1, 2],
        }

    def test_verification_report_defaults(self):
        data = self.round_trip(VerificationReport("r", Verdict.UNKNOWN))
        assert data["epoch"] is data["time"] is data["witness"] is None
        assert data["detail"] == ""

    @pytest.mark.parametrize("verdict", list(Verdict))
    def test_loop_report(self, verdict):
        report = LoopReport(
            verdict=verdict, epoch=("e", 1), time=0.5, loop_path=[1, 2, 1]
        )
        assert self.round_trip(report) == {
            "kind": "loop",
            "verdict": verdict.value,
            "epoch": "('e', 1)",  # any hashable tag is written as its str
            "time": 0.5,
            "loop_path": [1, 2, 1],
        }
        assert report.has_loop == (verdict is Verdict.VIOLATED)

    def test_loop_report_defaults(self):
        data = self.round_trip(LoopReport(Verdict.SATISFIED))
        assert data["epoch"] is data["time"] is data["loop_path"] is None


class TestShimsRemoved:
    """The PR 1 alias modules are gone; the canonical paths answer."""

    def test_ce2d_results_module_removed(self):
        with pytest.raises(ImportError):
            import repro.ce2d.results  # noqa: F401

    def test_core_stats_module_removed(self):
        with pytest.raises(ImportError):
            import repro.core.stats  # noqa: F401

    def test_canonical_homes_answer(self):
        import repro.results
        import repro.telemetry

        for name in ("Verdict", "VerificationReport", "LoopReport", "Report"):
            assert hasattr(repro.results, name), name
        assert hasattr(repro.telemetry, "PhaseBreakdown")
