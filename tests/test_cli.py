import json
import os
import sys

import pytest

from toricgraph import cli
from toricgraph.atlas import CACHE_ENV, VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_cycle6_text(self, capsys):
        code, out, _ = run(capsys, "invariants", "--family", "cycle", "--params", "6")
        assert code == 0
        assert out.strip() == "(2, 2, 1, 5, 5)"

    def test_k33_text(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--family", "complete-bipartite", "--params", "3", "3"
        )
        assert code == 0
        assert out.strip() == "(2, 2, 4, 5, 5)"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--family", "cycle", "--params", "6", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "reg": 2, "deg_h": 2, "pdim": 1, "depth": 5, "dim": 5,
            "a_invariant": -3, "codegree": 4,
        }

    def test_not_bipartite_exits_2(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code, _, err = run(capsys, "invariants", "--graph", str(path))
        assert code == 2
        assert "not bipartite" in err

    def test_disconnected_exits_2(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        code, _, err = run(capsys, "invariants", "--graph", str(path))
        assert code == 2
        assert "connected" in err

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text("# square\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run(capsys, "invariants", "--graph", str(path))
        assert code == 0
        assert out.strip() == "(1, 1, 1, 3, 3)"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "invariants", "--graph", "/nonexistent/g.txt")
        assert code == 2

    def test_no_source_exits_1(self, capsys):
        code, _, err = run(capsys, "invariants")
        assert code == 1

    def test_bad_family_params_exit_1(self, capsys):
        code, _, err = run(capsys, "invariants", "--family", "cycle", "--params", "3", "3")
        assert code == 1
        code, _, err = run(capsys, "invariants", "--family", "gnrp", "--params", "10", "3", "10")
        assert code == 1


class TestConstruct:
    def test_gnrp_text(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "gnrp", "--params", "10", "3", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# n=10 q=11"
        assert len(lines) == 12

    def test_hnrp_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--family", "hnrp", "--params", "10", "3", "12", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 10 and len(data["edges"]) == 21

    def test_realizing(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "realizing", "--params", "2", "7", "--json")
        assert code == 0
        assert json.loads(out)["n"] == 11


class TestEnumerate:
    def test_n4_text(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 3
        assert "n=4: 3 classes" in err

    def test_n5_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--json")
        assert code == 0
        graphs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(graphs) == 5
        assert all(g["n"] == 5 for g in graphs)

    def test_guard_exit_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "12")
        assert code == 1
        assert "guard" in err

    def test_closed_pipe_exits_1_silently(self, capsys, monkeypatch):
        # `toricgraph enumerate ... | head -1`: the reader has gone away
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", buffering=1) as closed_pipe:
            monkeypatch.setattr(sys, "stdout", closed_pipe)
            with pytest.raises(BrokenPipeError):
                closed_pipe.write("x\n")
            assert cli.main(["enumerate", "--n", "4"]) == 1
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_n4_match(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--n", "4", "--out", str(out_file), "--no-cache")
        assert code == 0
        assert out.strip() == "n=4: 3 classes, 2 pairs, MATCH"
        report = json.loads(out_file.read_text())
        assert report["equal"] is True
        assert report["class_count"] == 3
        assert report["failures"] == []

    def test_guard_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "12")
        assert code == 1
        assert "guard" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exit_1(self, capsys, tmp_path, jobs):
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "verify", "--n", "4", "--jobs", jobs, "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert "--jobs: must be a positive integer" in err
        assert not out_file.exists()

    def test_n8_summary_line(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "--n", "8", "--out", str(tmp_path / "r8.json")
        )
        assert code == 0
        assert out.strip() == "n=8: 182 classes, 23 pairs, MATCH"

    def test_with_betti_oracle(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--out", str(out_file),
            "--no-cache", "--with-betti-oracle",
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["property_passes"]["betti_oracle_agrees"] == 3

    def test_counterexample_exit_3(self, capsys, tmp_path, monkeypatch):
        fake = VerificationReport(
            n=4, computed=((0, 0),), theoretical=((0, 0), (1, 1)), equal=False,
            class_count=3, property_passes={}, counterexamples=("pair sets differ",),
        )
        monkeypatch.setattr(cli.atlas, "verify", lambda *a, **k: fake)
        code, out, err = run(capsys, "verify", "--n", "4", "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "MISMATCH" in out
        assert "counterexample" in err


class TestCount:
    def test_known_values(self, capsys):
        for n, expected in ((2, "1"), (8, "23"), (9, "29")):
            code, out, _ = run(capsys, "count", "--n", str(n))
            assert code == 0 and out.strip() == expected


class TestBetti:
    def test_k23_table(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--family", "complete-bipartite", "--params", "2", "3"
        )
        assert code == 0
        assert "total:" in out
        assert "reg=1 pdim=2" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--family", "cycle", "--params", "6", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [[0, 0, 1], [1, 3, 1]]
        assert (data["reg"], data["pdim"]) == (2, 1)


class TestPlot:
    def test_csv_theoretical_n8(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.csv"
        code, out, _ = run(capsys, "plot", "--n", "8", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "r,p"
        assert len(lines) == 24
        assert lines[-1] == "3,9"

    def test_svg_theoretical_n9(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.svg"
        code, _, _ = run(capsys, "plot", "--n", "9", "--out", str(out_file))
        assert code == 0
        svg = out_file.read_text()
        assert svg.count("<circle") == 29
        assert "r = reg" in svg and "p = pdim" in svg

    def test_csv_computed_n4(self, capsys, tmp_path):
        out_file = tmp_path / "pairs.csv"
        code, _, _ = run(capsys, "plot", "--n", "4", "--out", str(out_file), "--source", "computed")
        assert code == 0
        assert out_file.read_text() == "r,p\n0,0\n1,1\n"

    def test_single_point_n2(self, capsys, tmp_path):
        out_file = tmp_path / "p2.svg"
        code, _, _ = run(capsys, "plot", "--n", "2", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().count("<circle") == 1

    def test_bad_extension_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "plot", "--n", "4", "--out", str(tmp_path / "x.png"))
        assert code == 1

    def test_bad_extension_rejected_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv(CACHE_ENV, str(cache))
        code, _, err = run(
            capsys, "plot", "--n", "6", "--out", str(tmp_path / "x.txt"), "--source", "computed"
        )
        assert code == 1
        assert "--out must end in .csv or .svg" in err
        assert list(cache.iterdir()) == []
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_1_exit_1(self, capsys, tmp_path, jobs):
        code, _, err = run(capsys, "plot", "--n", "4", "--out", str(tmp_path / "p.csv"),
                           "--source", "computed", "--jobs", jobs)
        assert code == 1
        assert "--jobs" in err
        assert not (tmp_path / "p.csv").exists()


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "invariants", "--family", "petersen", "--params", "1")
        assert code == 1

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
