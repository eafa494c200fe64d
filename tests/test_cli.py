"""Tests for the command-line front-end."""

from __future__ import annotations

import io
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.stream.generators import zipf_stream


@pytest.fixture
def zipf_file(tmp_path):
    path = tmp_path / "items.txt"
    stream = zipf_stream(20_000, 500, 1.4, rng=1)
    path.write_text("\n".join(str(int(x)) for x in stream))
    return path, stream


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_heavy_hitters_args(self):
        args = build_parser().parse_args(
            ["heavy-hitters", "--phi", "0.1", "--window", "100", "f.txt"]
        )
        assert args.phi == 0.1
        assert args.window == 100
        assert args.file == "f.txt"


class TestHeavyHitters:
    def test_infinite_window(self, zipf_file):
        path, stream = zipf_file
        code, output = run_cli(
            ["heavy-hitters", "--phi", "0.05", "--eps", "0.01", str(path)]
        )
        assert code == 0
        assert f"items processed: {len(stream)}" in output
        assert "(0," in output  # hottest Zipf item reported

    def test_sliding_window(self, zipf_file):
        path, _ = zipf_file
        code, output = run_cli(
            ["heavy-hitters", "--phi", "0.05", "--window", "5000", str(path)]
        )
        assert code == 0
        assert "(0," in output

    def test_report_every(self, zipf_file):
        path, _ = zipf_file
        code, output = run_cli(
            ["--report-every", "2", "heavy-hitters", "--phi", "0.1", str(path)]
        )
        assert code == 0
        assert output.count("[") >= 2


class TestFrequency:
    def test_point_estimates(self, zipf_file):
        path, stream = zipf_file
        code, output = run_cli(
            ["frequency", "--eps", "0.01", str(path), "--query", "0", "1"]
        )
        assert code == 0
        true0 = int((stream == 0).sum())
        # the printed estimate for item 0 is within eps*m of truth
        estimate = int(output.split("(0, ")[1].split(")")[0])
        assert true0 - 0.01 * len(stream) <= estimate <= true0


class TestCountAndSum:
    def test_count(self, tmp_path):
        path = tmp_path / "bits.txt"
        rng = np.random.default_rng(2)
        bits = (rng.random(5_000) < 0.3).astype(int)
        path.write_text(" ".join(map(str, bits)))
        code, output = run_cli(["count", "--window", "1000", "--eps", "0.1", str(path)])
        assert code == 0
        true = int(bits[-1000:].sum())
        answer = int(output.splitlines()[-1].split(": ")[1])
        assert true <= answer <= 1.1 * true

    def test_sum(self, tmp_path):
        path = tmp_path / "vals.txt"
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 100, size=3_000)
        path.write_text(" ".join(map(str, vals)))
        code, output = run_cli(
            ["sum", "--window", "500", "--eps", "0.1", "--max-value", "99", str(path)]
        )
        assert code == 0
        true = int(vals[-500:].sum())
        answer = int(output.splitlines()[-1].split(": ")[1])
        assert true <= answer <= 1.1 * true + 1


class TestCms:
    def test_point_queries_never_undercount(self, zipf_file):
        path, stream = zipf_file
        code, output = run_cli(
            ["cms", "--eps", "0.001", str(path), "--query", "0", "3"]
        )
        assert code == 0
        est0 = int(output.split("(0, ")[1].split(")")[0])
        assert est0 >= int((stream == 0).sum())

    def test_conservative_flag(self, zipf_file):
        path, _ = zipf_file
        code, _ = run_cli(
            ["cms", "--conservative", str(path), "--query", "0"]
        )
        assert code == 0


class TestElasticSharding:
    def test_sharded_run_matches_unsharded(self, zipf_file):
        path, _ = zipf_file
        args = ["--batch", "1000", "cms", str(path), "--query", "0", "3", "7"]
        code_plain, out_plain = run_cli(args)
        code_sharded, out_sharded = run_cli(
            ["--shards", "4", *args]
        )
        assert code_plain == code_sharded == 0
        # Count-Min is state-exact under sharding: identical answers.
        assert out_plain.split("answer:")[1] == out_sharded.split("answer:")[1]
        assert "final shards: 4" in out_sharded

    def test_rescale_schedule_reported(self, zipf_file):
        path, _ = zipf_file
        code, output = run_cli(
            [
                "--batch", "1000", "--shards", "2",
                "--rescale-at", "3:8,12:3",
                "cms", str(path), "--query", "0",
            ]
        )
        assert code == 0
        assert "reshard @ batch 3: 2 -> 8 shards (scheduled" in output
        assert "reshard @ batch 12: 8 -> 3 shards (scheduled" in output
        assert "final shards: 3" in output

    def test_rescale_at_requires_shards(self, zipf_file):
        path, _ = zipf_file
        code, _ = run_cli(
            ["--rescale-at", "3:8", "cms", str(path), "--query", "0"]
        )
        assert code == 2

    def test_shards_rejects_non_mergeable(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("1 0 1 1 0")
        code, _ = run_cli(
            ["--shards", "2", "count", "--window", "4", str(path)]
        )
        assert code == 2

    def test_malformed_rescale_at(self, zipf_file):
        path, _ = zipf_file
        for bad in ("nonsense", "3", "3:0", "-1:4"):
            code, _ = run_cli(
                [
                    "--shards", "2", f"--rescale-at={bad}",
                    "cms", str(path), "--query", "0",
                ]
            )
            assert code == 2, bad

    def test_sharded_checkpointing(self, zipf_file, tmp_path):
        path, _ = zipf_file
        code, output = run_cli(
            [
                "--batch", "1000", "--shards", "3",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-every", "5",
                "cms", str(path), "--query", "0",
            ]
        )
        assert code == 0
        assert list((tmp_path / "ckpt").glob("ckpt-*.json"))


class TestCostsAndErrors:
    def test_costs_flag(self, zipf_file):
        path, _ = zipf_file
        code, output = run_cli(
            ["--costs", "heavy-hitters", "--phi", "0.1", str(path)]
        )
        assert code == 0
        assert "charged work:" in output

    def test_missing_file_is_clean_error(self):
        code, _ = run_cli(["count", "--window", "10", "/nonexistent/file.txt"])
        assert code == 2

    def test_bad_params_clean_error(self, zipf_file):
        path, _ = zipf_file
        code, _ = run_cli(["heavy-hitters", "--phi", "2.0", str(path)])
        assert code == 2


class TestSubprocess:
    def test_python_dash_m_entrypoint(self, tmp_path):
        path = tmp_path / "items.txt"
        path.write_text("1 1 1 2 3 1 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "heavy-hitters", "--phi", "0.4",
             str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "items processed: 7" in proc.stdout
        assert "(1," in proc.stdout


class TestQuantileCommand:
    def test_quantiles(self, tmp_path):
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 1000, size=4_000)
        path = tmp_path / "vals.txt"
        path.write_text(" ".join(map(str, vals)))
        code, output = run_cli(
            ["quantile", "--window", "1000", "--max-value", "999", str(path),
             "--q", "0.5"]
        )
        assert code == 0
        est = float(output.split("(0.5, ")[1].split(")")[0])
        true = float(np.quantile(vals[-1000:], 0.5))
        assert abs(est - true) <= 100  # within a couple of 15.6-wide buckets


class TestVarianceCommand:
    def test_mean_and_variance(self, tmp_path):
        rng = np.random.default_rng(12)
        vals = rng.integers(40, 61, size=3_000)
        path = tmp_path / "vals.txt"
        path.write_text(" ".join(map(str, vals)))
        code, output = run_cli(
            ["variance", "--window", "500", "--max-value", "100", str(path)]
        )
        assert code == 0
        assert "'mean':" in output and "'variance':" in output
        mean = float(output.split("'mean': ")[1].split(",")[0])
        assert 48 <= mean <= 53


class TestOpsCommand:
    def test_lists_every_exported_operator(self):
        """``repro ops`` is the registry's human surface: every operator
        exported from repro.core and repro.baselines must appear."""
        import inspect

        import repro.baselines as baselines
        import repro.core as core

        code, output = run_cli(["ops"])
        assert code == 0
        for module in (core, baselines):
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isclass(obj) and callable(getattr(obj, "ingest", None)):
                    assert name in output, f"repro ops omits {name}"

    def test_shows_capability_flags_and_count(self):
        from repro.engine import registry

        code, output = run_cli(["ops"])
        assert code == 0
        assert f"{len(registry.specs())} synopses registered" in output
        assert "M=mergeable" in output  # legend explains the flag letters
        # A known mergeable+preparable+invariant-checked core synopsis.
        cms_line = next(
            line for line in output.splitlines()
            if line.startswith("ParallelCountMin ")
        )
        assert "MPI" in cms_line and "core" in cms_line
        # Every letter the CAPS column prints is explained by the legend.
        legend, header, *rows = output.splitlines()[:-1]
        caps = slice(header.index("CAPS"), header.index("SUMMARY"))
        letters = {letter for row in rows for letter in row[caps].strip()} - {"-"}
        assert letters and all(f"{letter}=" in legend for letter in letters)


class TestFuzzCommand:
    """``repro fuzz``: the differential fuzzer's CLI surface, including
    every documented error path (exit 2 + an actionable message)."""

    def test_clean_run_renders_table(self, tmp_path):
        code, output = run_cli(
            ["fuzz", "--cases", "4", "--seed", "5",
             "--ops", "ExactCounters", "ParallelCountMin",
             "--artifact-dir", str(tmp_path)]
        )
        assert code == 0
        assert "ExactCounters" in output and "ParallelCountMin" in output
        assert "result: OK" in output

    def test_replay_clean_case(self, tmp_path):
        code, output = run_cli(
            ["fuzz", "--replay", "fuzz/v1:op=SBBC:seed=5:case=2",
             "--artifact-dir", str(tmp_path)]
        )
        assert code == 0
        assert "no violation reproduced" in output

    def test_caught_bug_exits_one_with_replay_line(self, tmp_path):
        from repro.engine import registry
        from repro.engine.registry import Capabilities
        from repro.fuzz import classify_like, declassify
        from tests.test_fuzz import _DropsLastItem

        name = "BuggyExactCountersCLI"
        registry.register(
            _DropsLastItem,
            summary="mutation smoke test (CLI)",
            input="items",
            caps=Capabilities(mergeable=True),
            build=lambda: _DropsLastItem(),
            probe=registry.get("ExactCounters").probe,
            name=name,
        )
        classify_like(name, "ExactCounters")
        try:
            code, output = run_cli(
                ["fuzz", "--cases", "12", "--seed", "5", "--ops", name,
                 "--artifact-dir", str(tmp_path)]
            )
        finally:
            registry._REGISTRY.pop(name, None)
            declassify(name)
        assert code == 1
        assert "FAIL" in output
        assert "repro fuzz --replay 'fuzz/v1:op=" in output
        assert "artifact:" in output

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fuzz", "--ops", "NoSuchOp"], "no synopsis named"),
            (["fuzz", "--cases", "0"], "cases must be >= 1"),
            (["fuzz", "--time-budget", "-1"], "time budget must be > 0"),
            (["fuzz", "--replay", "garbage"], "bad seed-spec"),
            (["fuzz", "--replay-file", "/nonexistent/case.json"],
             "No such file"),
            (["fuzz", "--replay", "fuzz/v1:op=SBBC:seed=1:case=0",
              "--replay-file", "x.json"], "mutually exclusive"),
            (["fuzz", "--replay", "fuzz/v1:op=NoSuchOp:seed=1:case=0"],
             "no synopsis named"),
        ],
    )
    def test_error_paths_exit_two(self, argv, message, capsys):
        code, _ = run_cli(argv)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_replay_file_must_be_fuzzcase_document(self, tmp_path, capsys):
        rogue = tmp_path / "baseline.json"
        rogue.write_text('{"format": "benchmark-baseline/v1"}')
        code, _ = run_cli(["fuzz", "--replay-file", str(rogue)])
        assert code == 2
        assert "repro-fuzzcase/v1" in capsys.readouterr().err

    def test_argparse_rejects_non_integer_cases(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--cases", "many"])
