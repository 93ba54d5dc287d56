"""The ``as_dict`` contract round-trips, and the legacy shims are gone."""

import pytest

from repro.results import (
    LoopReport,
    RunSummary,
    Verdict,
    VerificationReport,
    as_dicts,
    report_from_dict,
    verdict_tally,
)


class TestReportRoundTrip:
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
        assert report_from_dict(report.as_dict()) == report

    def test_verification_report_defaults(self):
        report = VerificationReport("r", Verdict.UNKNOWN)
        assert report_from_dict(report.as_dict()) == report

    @pytest.mark.parametrize("verdict", list(Verdict))
    def test_loop_report(self, verdict):
        report = LoopReport(
            verdict=verdict, epoch="e-1", time=0.5, loop_path=[1, 2, 1]
        )
        rebuilt = report_from_dict(report.as_dict())
        assert rebuilt == report
        assert rebuilt.has_loop == (verdict is Verdict.VIOLATED)

    def test_loop_report_defaults(self):
        report = LoopReport(Verdict.SATISFIED)
        assert report_from_dict(report.as_dict()) == report

    def test_run_summary(self):
        reports = [
            VerificationReport("r1", Verdict.SATISFIED, epoch="e"),
            LoopReport(Verdict.VIOLATED, epoch="e", loop_path=[0, 1, 0]),
        ]
        summary = RunSummary(
            system="flash",
            seconds=2.5,
            verdicts=verdict_tally(reports),
            model_stats={"ecs": 12},
            reports=reports,
            metrics={"imt.blocks": 3},
        )
        assert RunSummary.from_dict(summary.as_dict()) == summary

    def test_as_dicts_matches_individual(self):
        reports = [
            LoopReport(Verdict.SATISFIED),
            VerificationReport("r", Verdict.VIOLATED),
        ]
        assert as_dicts(reports) == [r.as_dict() for r in reports]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            report_from_dict({"kind": "mystery"})


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
