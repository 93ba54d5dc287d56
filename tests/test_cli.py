"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, fuzz_iterations, main
from repro.serve import load


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--topology", "internet2", "--out", "x.jsonl"]
        )
        assert args.command == "generate"
        assert args.fib == "apsp"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--trace", "t", "--engine", "nope"]
            )


class TestGenerateVerifyRoundtrip:
    def test_generate_then_verify_flash(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(
            ["generate", "--topology", "internet2", "--out", trace]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert main(["verify", "--topology", "internet2", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out

    def test_verify_with_baselines(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(["generate", "--topology", "internet2", "--out", trace])
        capsys.readouterr()
        for engine in ("apkeep", "deltanet"):
            assert main(
                [
                    "verify",
                    "--topology",
                    "internet2",
                    "--trace",
                    trace,
                    "--engine",
                    engine,
                ]
            ) == 0
            assert "model built" in capsys.readouterr().out

    def test_insert_then_delete_flag(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        main(
            [
                "generate",
                "--topology",
                "internet2",
                "--out",
                trace,
                "--insert-then-delete",
            ]
        )
        lines = open(trace).read().strip().splitlines()
        assert sum('"op":"delete"' in l for l in lines) == len(lines) // 2

    def test_unknown_topology_is_error(self, tmp_path, capsys):
        assert main(
            ["generate", "--topology", "nope", "--out", str(tmp_path / "x")]
        ) == 2
        assert "unknown topology" in capsys.readouterr().err


class TestSimulate:
    def test_clean_network_exits_zero(self, capsys):
        assert main(["simulate", "--topology", "internet2"]) == 0
        assert "FIB batches" in capsys.readouterr().out

    def test_buggy_network_exits_nonzero(self, capsys):
        code = main(
            ["simulate", "--topology", "internet2", "--buggy", "kans"]
        )
        assert code == 1
        assert "violated" in capsys.readouterr().out

    def test_link_failure_flag(self, capsys):
        assert main(
            ["simulate", "--topology", "internet2", "--fail-link", "chic-kans"]
        ) == 0


class TestAnalyze:
    def test_analyze_outputs_summary(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["generate", "--topology", "internet2", "--out", trace])
        capsys.readouterr()
        assert main(
            [
                "analyze",
                "--topology",
                "internet2",
                "--trace",
                trace,
                "--trace-from",
                "seat",
                "--trace-dst",
                "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "equivalence classes" in out
        assert "inverse model" in out
        assert "[delivered]" in out

    def test_unknown_trace_from_fails_before_any_output(self, tmp_path, capsys):
        """An unknown ``--trace-from`` name is one ``error:`` line and
        exit 2 before the model is built: nothing on stdout (it once
        printed the whole EC listing first)."""
        trace = str(tmp_path / "t.jsonl")
        main(["generate", "--topology", "internet2", "--out", trace])
        capsys.readouterr()
        code = main(
            ["analyze", "--topology", "internet2", "--trace", trace,
             "--trace-from", "nowhere"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: unknown device name 'nowhere'\n"

    def test_analyze_reports_blackholes_for_empty_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "empty.jsonl")
        open(trace, "w").close()
        assert main(
            ["analyze", "--topology", "internet2", "--trace", trace]
        ) == 0
        out = capsys.readouterr().out
        assert "blackholes" in out


GOOD_LINE = (
    '{"op":"insert","device":0,"priority":1,'
    '"match":{"dst":[[8,12]]},"action":1,"epoch":null}'
)

BAD_LINES = {
    "bad-json": '{"bad json',
    "missing-match": '{"op":"insert","device":0,"priority":1,"action":1}',
    "missing-op": '{"device":0,"priority":1,"match":{"dst":[[8,12]]},"action":1}',
    "unknown-op": GOOD_LINE.replace("insert", "upsert"),
    "non-object": "[1, 2, 3]",
    "action-object": GOOD_LINE.replace('"action":1', '"action":{"x":1}'),
    "action-float": GOOD_LINE.replace('"action":1', '"action":3.5'),
    "action-bool": GOOD_LINE.replace('"action":1', '"action":true'),
    "ternary-string": GOOD_LINE.replace("[[8,12]]", '[["8",12]]'),
    "ternary-negative": GOOD_LINE.replace("[[8,12]]", "[[8,-1]]"),
    "ternary-out-of-width": GOOD_LINE.replace("[[8,12]]", "[[8,4108]]"),
}
#: A wildcard above the out-of-width insert leaves it no share; its match
#: is compiled all the same.
BAD_LINES["ternary-out-of-width-shadowed"] = (
    GOOD_LINE.replace('"priority":1', '"priority":5').replace("[[8,12]]", "[[0,0]]")
    + "\n"
    + BAD_LINES["ternary-out-of-width"]
)

#: Rows the decoder accepts and the match compiler rejects: the error
#: names the ternary, not the line.
COMPILE_ERRORS = {
    "ternary-out-of-width": "[8, 4108]",
    "ternary-out-of-width-shadowed": "[8, 4108]",
}


@pytest.mark.parametrize("command", ["verify", "analyze"])
class TestBadTraceInput:
    """A trace is input from outside the program: one ``error:`` line and
    exit 2, like every other ReproError — never a traceback."""

    def run(self, command, trace, capsys):
        code = main([command, "--topology", "internet2", "--trace", str(trace)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith("error: ")
        return line

    @pytest.mark.parametrize("bad", sorted(BAD_LINES))
    def test_malformed_line_names_file_and_line(
        self, command, bad, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        trace.write_text(GOOD_LINE + "\n\n" + BAD_LINES[bad] + "\n")
        expected = COMPILE_ERRORS.get(bad, f"{trace}:3: ")
        assert expected in self.run(command, trace, capsys)

    def test_missing_trace_names_the_file(self, command, tmp_path, capsys):
        trace = tmp_path / "nonexistent.jsonl"
        assert str(trace) in self.run(command, trace, capsys)

    def test_binary_trace_names_the_file(self, command, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(GOOD_LINE.encode() + b"\n\xff\xfe\n")
        assert str(trace) in self.run(command, trace, capsys)


@pytest.mark.parametrize("engine", ["flash", "apkeep", "deltanet"])
def test_a_match_on_a_field_outside_the_layout_fails_every_engine(
    engine, tmp_path, capsys
):
    """The line decodes (a match names any field); compiling it against
    the topology's layout is what fails, the same way on every engine."""
    trace = tmp_path / "t.jsonl"
    trace.write_text(GOOD_LINE.replace('"dst":[[8,12]]', '"nope":[[1,255]]') + "\n")
    code = main(
        ["verify", "--topology", "internet2", "--trace", str(trace),
         "--engine", engine]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unknown field 'nope'\n"
    assert "model built" not in captured.out


@pytest.mark.parametrize("engine", ["flash", "apkeep", "deltanet"])
def test_a_shadowed_match_on_a_field_outside_the_layout_fails_every_engine(
    engine, tmp_path, capsys
):
    """A higher wildcard leaves the bad rule no share of the header
    space; its match is compiled all the same, on every engine."""
    wildcard = GOOD_LINE.replace('"priority":1', '"priority":5').replace(
        "[[8,12]]", "[[0,0]]"
    )
    trace = tmp_path / "t.jsonl"
    trace.write_text(
        wildcard + "\n"
        + GOOD_LINE.replace('"dst":[[8,12]]', '"nope":[[1,255]]') + "\n"
    )
    code = main(
        ["verify", "--topology", "internet2", "--trace", str(trace),
         "--engine", engine]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unknown field 'nope'\n"
    assert "model built" not in captured.out


class TestBackendFlagIsGone:
    """``--backend`` selected a predicate representation; there is one.
    Argparse rejects it before a trace is read or a scenario generated
    (with ``--chaos`` / ``--interleave`` it used to be accepted and
    silently ignored).  ``serve --isolation`` selected a snapshot
    isolation mode; there is one, and it goes the same way."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--trace", "t.jsonl", "--backend", "bdd"],
            ["fuzz", "--backend", "intervals"],
            ["fuzz", "--chaos", "--backend", "intervals"],
            ["fuzz", "--interleave", "--backend", "intervals"],
            ["serve", "--quick", "--isolation", "copy"],
        ],
        ids=["verify", "fuzz", "fuzz-chaos", "fuzz-interleave",
             "serve-isolation"],
    )
    def test_backend_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {argv[-2]}" in captured.err
        assert captured.out == ""


class TestServeExitStatus:
    """``repro serve`` is CI's serve consistency gate: its exit status
    carries every hardware-independent invariant, not divergences only."""

    HEALTHY = dict(
        workload="mixed_storm", queries=60, wall_seconds=0.1, qps=600.0,
        p50_ms=1.0, p99_ms=2.0, final_epoch=9, distinct_epochs=5,
        mid_storm_queries=30, cache_hits=10, cache_misses=50,
        cache_hit_rate=10 / 60, rejected=0, ingest_failures=0,
    )  # --quick is 3 clients x 20 queries, 1 + 8 batches

    def run(self, monkeypatch, capsys, *flags, **overrides):
        result = load.LoadResult(**{**self.HEALTHY, **overrides})
        monkeypatch.setattr(load, "run_load", lambda *a, **kw: result)
        code = main(["serve", "--quick", *flags])
        return code, capsys.readouterr()

    def test_healthy_run_exits_zero(self, monkeypatch, capsys):
        code, captured = self.run(monkeypatch, capsys)
        assert code == 0
        assert "every served answer equals the batch oracle" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "overrides, complaint",
        [
            ({"ingest_failures": 1}, "1 ingest batches failed"),
            ({"queries": 59}, "served 59 of 60 queries"),
            ({"final_epoch": 1}, "only 1 epochs"),
            ({"divergences": ["epoch 3: ..."]}, "1 answers diverged"),
        ],
        ids=["ingest-failure", "short-answer-count", "storm-never-advanced",
             "divergence"],
    )
    def test_broken_invariant_exits_one(
        self, monkeypatch, capsys, tmp_path, overrides, complaint
    ):
        telemetry = tmp_path / "serve.jsonl"
        code, captured = self.run(
            monkeypatch, capsys, "--telemetry", str(telemetry), **overrides
        )
        assert code == 1
        assert "every served answer" not in captured.out
        assert complaint in captured.err
        # A failed run still leaves the telemetry to debug it with.
        assert telemetry.exists()

    @pytest.mark.parametrize(
        "flag", ["--workers", "--queue-size", "--query-deadline"]
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_sizes_are_argparse_errors(
        self, monkeypatch, capsys, flag, value
    ):
        def started(*args, **kwargs):
            raise AssertionError("a daemon was started")

        monkeypatch.setattr(load, "run_load", started)
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--quick", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: must be positive" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


#: (subcommand argv, flag, bad value): counts and durations that must be
#: positive.  Each once ran to a clean exit without doing its job:
#: ``fuzz`` reported "0 replays … 0 divergent" or stopped on "0
#: divergences reached", ``analyze`` sliced ``holes[:-5]``.
BAD_NUMBERS = [
    (["fuzz"], "--iterations", "0"),
    (["fuzz"], "--iterations", "-3"),
    (["fuzz"], "--time-budget", "-1"),
    (["fuzz"], "--max-divergences", "0"),
    (["analyze", "--trace", "missing.jsonl"], "--limit", "-5"),
    (["simulate"], "--dampen-seconds", "nan"),
    (["simulate"], "--dampen-seconds", "-5"),
]


@pytest.mark.parametrize(
    "argv, flag, value",
    BAD_NUMBERS,
    ids=[f"{flag}={value}" for _, flag, value in BAD_NUMBERS],
)
def test_non_positive_numbers_are_argparse_errors(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert f"error: argument {flag}: must be positive, got {value}" in (
        captured.err
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


#: ``simulate --fail-link`` values that name no link: each once ended in a
#: ``ValueError`` traceback from unpacking ``split("-")``.
BAD_LINKS = ["garbage", "a-b-c", "-kans", "chic-", ""]


@pytest.mark.parametrize("value", BAD_LINKS)
def test_malformed_fail_link_is_an_argparse_error(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", f"--fail-link={value}"])  # "-kans" is no flag
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert (
        "error: argument --fail-link: expected two device names as "
        f"NAME-NAME, got {value!r}" in captured.err
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_fail_link_that_is_no_link_names_its_devices(capsys):
    """A self-link parses but is no switch link: the error names the
    devices, not their ids."""
    assert main(["simulate", "--fail-link", "chic-chic"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown switch link chic-chic\n"


def test_chaos_and_interleave_are_an_argparse_error(capsys):
    """The two fuzz modes exclude each other; argparse says so before a
    scenario is generated (it once printed a bare line to stdout)."""
    with pytest.raises(SystemExit) as exit_info:
        main(["fuzz", "--chaos", "--interleave"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1
    assert (
        "error: argument --interleave: not allowed with argument --chaos"
        in captured.err
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], 50),
        (["--time-budget", "60"], None),
        (["--iterations", "7"], 7),
        (["--iterations", "7", "--time-budget", "60"], 7),
    ],
    ids=["default", "budget-alone", "count", "count-and-budget"],
)
def test_fuzz_iterations_resolve_from_the_budget(argv, expected):
    """Without ``--iterations`` a time budget alone bounds the run; it
    once stopped at the default 50 scenarios, ≈ 2 s into a 60-s budget."""
    args = build_parser().parse_args(["fuzz", *argv])
    assert fuzz_iterations(args) == expected
