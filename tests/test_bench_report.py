"""tools/bench_report.py: perfbench record lines into BENCH_sweeps.json."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def tool():
    spec = importlib.util.spec_from_file_location(
        "bench_report", os.path.join(REPO_ROOT, "tools", "bench_report.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(workload="regen-barrier", code="c0de", wall=2.5, trace=0, seed=7):
    """One perfbench output: metric lines, the record line, the summary."""
    line = {
        "digests": {"figure4": "ab"},
        "end_to_end": {"peak_rss_mb": 57.9, "setup_s": 0.23, "wall_s": wall},
        "errors": [],
        "fail_rate": 0.0,
        "seed": seed,
        "stamp": {"code_digest": code, "cpu_count": 2, "numpy": "2", "python": "3"},
        "trace": trace,
        "workload": workload,
    }
    if trace:
        line["per_layer"] = {"barrier.ext.self_s": 0.4}
    return (
        f"wall_s    {wall} s\n"
        f"record: {json.dumps(line, sort_keys=True)}\n"
        '{"correct": true, "attempted": 32, "failed": 0, "metrics": {}}\n'
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestPerfbenchEntries:
    def test_record_line_becomes_an_entry(self, tool):
        [(workload, entry)] = tool.perfbench_entries(record(trace=1))
        assert workload == "regen-barrier"
        assert entry == {
            "code_digest": "c0de",
            "cpu_count": 2,
            "end_to_end": {"peak_rss_mb": 57.9, "setup_s": 0.23, "wall_s": 2.5},
            "per_layer": {"barrier.ext.self_s": 0.4},
            "seed": 7,
            "trace": 1,
        }

    def test_untraced_run_has_no_layers(self, tool):
        [(__, entry)] = tool.perfbench_entries(record())
        assert entry["per_layer"] == {}

    def test_other_lines_are_ignored(self, tool):
        assert tool.perfbench_entries("wall_s 2.0 s\n{\"correct\": true}\n") == []


class TestAddPerfbench:
    def test_merges_without_touching_other_sections(self, tool, tmp_path, capsys):
        output = tmp_path / "BENCH_sweeps.json"
        output.write_text(json.dumps({"cpu_count": 1, "experiments": {"x": 1}}))
        before = write(tmp_path, "before.txt", record(code="aaaa", wall=2.5))
        after = write(
            tmp_path, "after.txt",
            record(code="bbbb", wall=2.0) + record(code="bbbb", wall=2.1),
        )
        other = write(tmp_path, "net.txt", record(workload="regen-net"))
        argv = ["--output", str(output), "--perfbench", before, after, other]
        assert tool.main(argv) == 0
        report = json.loads(output.read_text())
        assert report["cpu_count"] == 1
        assert report["experiments"] == {"x": 1}
        runs = report["perfbench"]["regen-barrier"]
        assert [run["code_digest"] for run in runs] == ["aaaa", "bbbb", "bbbb"]
        assert [run["end_to_end"]["wall_s"] for run in runs] == [2.5, 2.0, 2.1]
        assert len(report["perfbench"]["regen-net"]) == 1
        out = capsys.readouterr().out
        assert "4 new perfbench record(s)" in out
        assert "median wall_s 2.050" in out

        # Adding the same files again stores nothing twice.
        assert tool.main(argv) == 0
        again = json.loads(output.read_text())
        assert again == report
        assert "0 new perfbench record(s)" in capsys.readouterr().out

    def test_creates_the_output(self, tool, tmp_path):
        output = tmp_path / "new.json"
        path = write(tmp_path, "run.txt", record())
        assert tool.main(["--output", str(output), "--perfbench", path]) == 0
        assert list(json.loads(output.read_text())) == ["perfbench"]

    def test_file_without_a_record_fails(self, tool, tmp_path, capsys):
        output = tmp_path / "BENCH_sweeps.json"
        path = write(tmp_path, "empty.txt", "wall_s 2.0 s\n")
        assert tool.main(["--output", str(output), "--perfbench", path]) == 1
        assert "no perfbench record line" in capsys.readouterr().err
        assert not output.exists()


class TestCollectCpuCount:
    """The default mode stamps the records' own ``cpu_count``, never the
    collecting host's."""

    def reports(self, tmp_path, counts):
        reports = tmp_path / "reports"
        reports.mkdir()
        for index, count in enumerate(counts):
            body = {"experiment_id": f"e{index}", "wall_time_seconds": 1.0}
            if count is not None:
                body["cpu_count"] = count
            (reports / f"e{index}.json").write_text(json.dumps(body))
        return str(reports)

    def test_records_count_wins_over_the_host(self, tool, tmp_path, monkeypatch):
        monkeypatch.setattr(tool.os, "cpu_count", lambda: 64)
        reports = self.reports(tmp_path, [1, 1, None])
        report = tool.collect(reports)
        assert report["cpu_count"] == 1
        assert "cpu_counts" not in report
        output = tmp_path / "BENCH_sweeps.json"
        assert tool.main(["--reports-dir", reports, "--output", str(output)]) == 0
        assert json.loads(output.read_text())["cpu_count"] == 1

    def test_disagreeing_records_are_all_kept(self, tool, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tool.os, "cpu_count", lambda: 64)
        report = tool.collect(self.reports(tmp_path, [2, 1, 2]))
        assert report["cpu_count"] is None
        assert report["cpu_counts"] == [1, 2]
        assert "disagree on cpu_count (1, 2)" in capsys.readouterr().err

    def test_no_count_in_any_record(self, tool, tmp_path, monkeypatch):
        monkeypatch.setattr(tool.os, "cpu_count", lambda: 64)
        assert tool.collect(self.reports(tmp_path, [None]))["cpu_count"] is None
