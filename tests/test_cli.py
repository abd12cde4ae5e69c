"""Command-line interface: flags, artifacts, exit codes."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxsuite
from boxsuite.cli import main
from boxsuite.fitmatrix import compute_fit_matrix
from boxsuite.fitting import FitVerdict, Outcome
from boxsuite.model import (
    BoxSet,
    CandidateBox,
    Carton,
    Dims3,
    Shipment,
    load_boxes,
    load_shipments,
    save_boxes,
    save_shipments,
)


@pytest.fixture
def fixture_files(tmp_path):
    boxes = BoxSet([
        CandidateBox(id=1, inner=Dims3(2, 2, 2)),
        CandidateBox(id=2, inner=Dims3(3, 2, 2)),
        CandidateBox(id=3, inner=Dims3(4, 3, 2)),
        CandidateBox(id=4, inner=Dims3(6, 4, 3)),
    ])
    shipments = [
        Shipment(id=10, cartons=(Carton(Dims3(2, 2, 2)),)),
        Shipment(id=11, cartons=(Carton(Dims3(3, 2, 1)), Carton(Dims3(3, 2, 1)))),
        Shipment(id=12, cartons=(Carton(Dims3(4, 3, 2)),)),
    ]
    bpath = tmp_path / "boxes.csv"
    spath = tmp_path / "shipments.csv"
    save_boxes(boxes, bpath)
    save_shipments(shipments, spath)
    return tmp_path, str(bpath), str(spath)


def run_fit(files):
    tmp, bpath, spath = files
    out = tmp / "fit.csv"
    rc = main(["fit", "--boxes", bpath, "--shipments", spath,
               "--out", str(out), "--threads", "1"])
    assert rc == 0
    return out


class TestFit:
    def test_writes_expected_bits_and_manifest(self, fixture_files):
        out = run_fit(fixture_files)
        rows = {tuple(line.split(",")) for line in
                out.read_text().strip().splitlines()[1:]}
        assert rows == {("10", "1"), ("10", "2"), ("10", "3"), ("10", "4"),
                        ("11", "2"), ("11", "3"), ("11", "4"),
                        ("12", "3"), ("12", "4")}
        manifest = json.loads((out.parent / "fit.manifest.json").read_text())
        assert manifest["set_bits"] == 9
        assert manifest["timeouts"] == []

    def test_forced_timeout_recorded_with_bit_clear(self, tmp_path):
        # passes the screens, the box cut, the volume bound and the
        # packer, and its search is still open after 5 s and about 665,000
        # branch-and-bound nodes, so 1 ms always runs out
        cartons = (Carton(Dims3(5, 3, 4)),) * 6 + (Carton(Dims3(4, 1, 1)),)
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(9, 7, 6))])
        shipments = [Shipment(id=1, cartons=cartons)]
        bpath, spath = tmp_path / "b.csv", tmp_path / "s.csv"
        save_boxes(boxes, bpath)
        save_shipments(shipments, spath)
        out = tmp_path / "fit.csv"
        rc = main(["fit", "--boxes", str(bpath), "--shipments", str(spath),
                   "--out", str(out), "--time-limit-ms", "1"])
        assert rc == 0
        assert out.read_text().strip().splitlines()[1:] == []
        manifest = json.loads((tmp_path / "fit.manifest.json").read_text())
        assert manifest["timeouts"] == [[1, 1]]

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["fit", "--boxes", str(tmp_path / "nope.csv"),
                   "--shipments", str(tmp_path / "nope2.csv"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_malformed_threads_variable_exits_2(self, fixture_files, monkeypatch,
                                                capsys, value):
        tmp, bpath, spath = fixture_files
        monkeypatch.setenv("BOXSUITE_THREADS", value)
        rc = main(["fit", "--boxes", bpath, "--shipments", spath,
                   "--out", str(tmp / "fit.csv")])
        assert rc == 2
        assert "BOXSUITE_THREADS" in capsys.readouterr().err
        assert not (tmp / "fit.csv").exists()

    def test_unset_threads_variable_defaults_to_one(self, fixture_files, monkeypatch):
        tmp, bpath, spath = fixture_files
        monkeypatch.delenv("BOXSUITE_THREADS", raising=False)
        seen = []
        original = boxsuite.cli.compute_fit_matrix

        def spy(shipments, boxes, cfg):
            seen.append(cfg.threads)
            return original(shipments, boxes, cfg=cfg)

        monkeypatch.setattr(boxsuite.cli, "compute_fit_matrix", spy)
        assert main(["fit", "--boxes", bpath, "--shipments", spath,
                     "--out", str(tmp / "fit.csv")]) == 0
        monkeypatch.setenv("BOXSUITE_THREADS", "2")
        assert main(["fit", "--boxes", bpath, "--shipments", spath,
                     "--out", str(tmp / "fit.csv")]) == 0
        assert seen == [1, 2]

    @pytest.mark.parametrize("solver, cartons", [
        # two cartons no one-row stack holds reach the exact 2-carton solver
        ("fits_exact_small", [(3, 3, 2)] * 2),
        # four cubes no one-row stack holds reach the search
        ("solve_fit", [(2, 2, 2)] * 4),
    ])
    def test_bogus_witness_exits_3(self, tmp_path, monkeypatch, capsys, solver, cartons):
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(4, 4, 3))])
        shipments = [Shipment(id=1, cartons=tuple(Carton(Dims3(*d)) for d in cartons))]
        bpath, spath = tmp_path / "b.csv", tmp_path / "s.csv"
        save_boxes(boxes, bpath)
        save_shipments(shipments, spath)
        monkeypatch.setattr(f"boxsuite.fitmatrix.{solver}",
                            lambda *args: FitVerdict(Outcome.FIT, witness=()))
        rc = main(["fit", "--boxes", str(bpath), "--shipments", str(spath),
                   "--out", str(tmp_path / "fit.csv")])
        assert rc == 3
        assert "witness fails the re-check" in capsys.readouterr().err


class TestRecommend:
    def run(self, files, *extra):
        tmp, bpath, spath = files
        fit = run_fit(files)
        out_dir = tmp / "run"
        rc = main(["recommend", "--fit", str(fit), "--boxes", bpath,
                   "--shipments", spath, "-p", "2",
                   "--out", str(out_dir), *extra])
        return rc, out_dir

    def test_exact_and_grasp_agree(self, fixture_files):
        rc, out_dir = self.run(fixture_files, "--method", "exact")
        assert rc == 0
        exact = json.loads((out_dir / "suite.json").read_text())
        rc, out_dir = self.run(fixture_files, "--method", "grasp")
        assert rc == 0
        grasp = json.loads((out_dir / "suite.json").read_text())
        assert [e["id"] for e in exact["suite"]] == [e["id"] for e in grasp["suite"]]
        assert exact["objective"] == grasp["objective"]

    def test_suite_is_the_same_with_a_missing_or_corrupt_fit_npz(self, fixture_files):
        tmp, bpath, spath = fixture_files
        fit = run_fit(fixture_files)
        npz = fit.with_suffix(".npz")
        saved = npz.read_bytes()

        def recommend(name):
            out_dir = tmp / name
            assert main(["recommend", "--fit", str(fit), "--boxes", bpath,
                         "--shipments", spath, "-p", "2", "--out", str(out_dir)]) == 0
            return (out_dir / "suite.json").read_bytes()

        from_npz = recommend("npz")
        npz.unlink()
        without = recommend("without")
        mid = len(saved) // 2
        npz.write_bytes(saved[:mid] + bytes([saved[mid] ^ 1]) + saved[mid + 1:])
        corrupt = recommend("corrupt")
        assert from_npz == without == corrupt

    def test_lock_at_least_p_exits_2(self, fixture_files):
        rc, _ = self.run(fixture_files, "--lock", "1,2")
        assert rc == 2

    def test_locked_box_appears(self, fixture_files):
        rc, out_dir = self.run(fixture_files, "--lock", "1", "--method", "exact")
        assert rc == 0
        payload = json.loads((out_dir / "suite.json").read_text())
        assert 1 in [e["id"] for e in payload["suite"]]

    def test_lagrangian_reports_bounds(self, fixture_files):
        rc, out_dir = self.run(fixture_files, "--method", "lagrangian")
        assert rc == 0
        text = (out_dir / "report.txt").read_text()
        assert "lower bound" in text
        assert "optimality gap" in text

    def test_suite_json_records_row_counts(self, tmp_path):
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(2, 2, 2)),
                        CandidateBox(id=2, inner=Dims3(4, 3, 2)),
                        CandidateBox(id=3, inner=Dims3(6, 4, 3))])
        shipments = [Shipment(id=20, cartons=(Carton(Dims3(2, 2, 2)),)),
                     Shipment(id=21, cartons=(Carton(Dims3(2, 2, 2)),)),
                     Shipment(id=22, cartons=(Carton(Dims3(4, 3, 2)),))]
        bpath, spath = tmp_path / "b.csv", tmp_path / "s.csv"
        save_boxes(boxes, bpath)
        save_shipments(shipments, spath)
        fit = tmp_path / "fit.csv"
        assert main(["fit", "--boxes", str(bpath), "--shipments", str(spath),
                     "--out", str(fit)]) == 0
        assert main(["recommend", "--fit", str(fit), "--boxes", str(bpath),
                     "--shipments", str(spath), "-p", "2", "--lock", "3",
                     "--out", str(tmp_path / "run")]) == 0
        payload = json.loads((tmp_path / "run" / "suite.json").read_text())
        # three shipment rows plus one lock row; shipments 20 and 21 share
        # one. Box 3 costs more than box 2 on every shipment, but the lock
        # row keeps it undominated.
        assert payload["rows"] == 4
        assert payload["distinct_rows"] == 3
        assert payload["columns"] == 3
        assert [e["id"] for e in payload["suite"]] == [2, 3]
        assert payload["objective"] == 3 * 24

    def test_exact_runs_on_undominated_boxes(self, tmp_path, capsys):
        # 30 boxes, six per cube size k: only the k-cube is undominated, as
        # each other box fits the same cube cartons at a larger volume.
        boxes = BoxSet([CandidateBox(id=10 * k + e, inner=Dims3(k, k + a, k + b))
                        for k in range(1, 6)
                        for e, (a, b) in enumerate(
                            [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)])])
        shipments = [Shipment(id=k, cartons=(Carton(Dims3(k, k, k)),))
                     for k in range(1, 6)]
        bpath, spath = tmp_path / "b.csv", tmp_path / "s.csv"
        save_boxes(boxes, bpath)
        save_shipments(shipments, spath)
        fit = tmp_path / "fit.csv"
        assert main(["fit", "--boxes", str(bpath), "--shipments", str(spath),
                     "--out", str(fit)]) == 0
        rc = main(["recommend", "--fit", str(fit), "--boxes", str(bpath),
                   "--shipments", str(spath), "-p", "2", "--method", "exact",
                   "--out", str(tmp_path / "run")])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads((tmp_path / "run" / "suite.json").read_text())
        assert payload["columns"] == 5
        # cubes 3 and 5: 3 * 27 + 2 * 125 beats every other pair of cubes
        assert [e["id"] for e in payload["suite"]] == [30, 50]
        assert payload["objective"] == 3 * 27 + 2 * 125

    def test_infeasible_still_exits_0(self, tmp_path, capsys):
        boxes = BoxSet([CandidateBox(id=1, inner=Dims3(10, 1, 1)),
                        CandidateBox(id=2, inner=Dims3(3, 3, 3))])
        shipments = [Shipment(id=20, cartons=(Carton(Dims3(10, 1, 1)),)),
                     Shipment(id=21, cartons=(Carton(Dims3(3, 3, 3)),))]
        bpath, spath = tmp_path / "b.csv", tmp_path / "s.csv"
        save_boxes(boxes, bpath)
        save_shipments(shipments, spath)
        fit = tmp_path / "fit.csv"
        assert main(["fit", "--boxes", str(bpath), "--shipments", str(spath),
                     "--out", str(fit)]) == 0
        rc = main(["recommend", "--fit", str(fit), "--boxes", str(bpath),
                   "--shipments", str(spath), "-p", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "There is no feasible solution" in capsys.readouterr().out
        payload = json.loads((tmp_path / "run" / "suite.json").read_text())
        assert payload["feasible"] is False
        assert payload["suite"] == []


class TestOtherCommands:
    @pytest.fixture
    def recommended(self, fixture_files):
        tmp, bpath, spath = fixture_files
        fit = run_fit(fixture_files)
        out_dir = tmp / "run"
        assert main(["recommend", "--fit", str(fit), "--boxes", bpath,
                     "--shipments", spath, "-p", "2", "--method", "exact",
                     "--out", str(out_dir)]) == 0
        return fixture_files, out_dir / "suite.json"

    def test_validate_identical_sets(self, recommended, capsys):
        (tmp, bpath, spath), suite = recommended
        rc = main(["validate", "--suite", str(suite), "--boxes", bpath,
                   "--shipments-a", spath, "--shipments-b", spath,
                   "--out", str(tmp / "val")])
        assert rc == 0
        assert "no metric divergence" in capsys.readouterr().out
        assert (tmp / "val" / "validation.csv").exists()

    def test_compare_baseline_zero(self, recommended, capsys):
        (tmp, bpath, spath), suite = recommended
        rc = main(["compare", "--suite", str(suite), "--suite", str(suite),
                   "--boxes", bpath, "--shipments", spath])
        assert rc == 0
        assert "0.00%" in capsys.readouterr().out

    def test_validate_and_compare_pack_by_a_cost_table_not_by_volume(self, fixture_files):
        tmp, bpath, spath = fixture_files
        boxes, shipments = load_boxes(bpath), load_shipments(spath)
        costs = {1: 40.0, 2: 10.0, 3: 30.0, 4: 20.0}  # box 4 before box 3
        (tmp / "costs.csv").write_text("".join(f"{k},{v}\n" for k, v in costs.items()))
        suites = {"big": (2, 3, 4), "small": (3, 4)}
        expected = {}
        for name, ids in suites.items():
            suite = BoxSet([boxes[boxes.index_of(i)] for i in ids])
            (tmp / f"{name}.json").write_text(json.dumps({"suite": [
                {"id": bx.id, "inner": list(bx.inner.as_tuple())} for bx in suite]}))
            fitm, _ = compute_fit_matrix(shipments, suite)
            expected[name] = [suite[min(row, key=lambda j: (costs[suite[j].id], j))].id
                              for row in fitm.rows]
        assert expected == {"big": [2, 2, 4], "small": [4, 4, 4]}

        cost = ["--cost", f"table:{tmp / 'costs.csv'}"]
        assert main(["validate", "--suite", str(tmp / "big.json"), "--boxes", bpath,
                     "--shipments-a", spath, "--shipments-b", spath,
                     "--out", str(tmp / "val")] + cost) == 0
        with (tmp / "val" / "validation.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for tag in "ab":
            assert {int(r["box_id"]): int(r["n_assigned"]) for r in rows if r["set"] == tag} \
                == {i: expected["big"].count(i) for i in suites["big"]}

        assert main(["compare", "--suite", str(tmp / "big.json"),
                     "--suite", str(tmp / "small.json"), "--boxes", bpath,
                     "--shipments", spath, "--out", str(tmp / "cmp")] + cost) == 0
        text = (tmp / "cmp" / "comparison.txt").read_text()
        totals = [float(line.split()[1]) for line in text.splitlines()[1::2]]
        assert totals == [sum(costs[i] for i in expected[name]) for name in suites]

    def test_finetune_emits_locked(self, fixture_files):
        tmp, bpath, spath = fixture_files
        fit = run_fit(fixture_files)
        out_dir = tmp / "run"
        assert main(["recommend", "--fit", str(fit), "--boxes", bpath,
                     "--shipments", spath, "-p", "2", "--method", "exact",
                     "--lock", "1", "--out", str(out_dir)]) == 0
        out = tmp / "tuned.csv"
        rc = main(["finetune", "--suite", str(out_dir / "suite.json"),
                   "--boxes", bpath, "--deltas=-1,0,1", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in
                out.read_text().strip().splitlines()[1:]]
        assert ["1", "2", "2", "2"] in rows

    def test_fitone_reports_cheapest_box(self, recommended, tmp_path, capsys):
        (tmp, bpath, spath), suite = recommended
        one = tmp_path / "one.csv"
        save_shipments([Shipment(id=99, cartons=(Carton(Dims3(3, 2, 1)),))], one)
        rc = main(["fitone", "--shipment", str(one), "--suite", str(suite)])
        assert rc == 0
        assert "box 2" in capsys.readouterr().out

    def test_fitone_no_fit(self, recommended, tmp_path, capsys):
        (tmp, bpath, spath), suite = recommended
        one = tmp_path / "one.csv"
        save_shipments([Shipment(id=99, cartons=(Carton(Dims3(9, 9, 9)),))], one)
        rc = main(["fitone", "--shipment", str(one), "--suite", str(suite)])
        assert rc == 0
        assert "no suite box fits" in capsys.readouterr().out

    def test_fitone_rejects_multiple_shipments(self, recommended):
        (tmp, bpath, spath), suite = recommended
        rc = main(["fitone", "--shipment", spath, "--suite", str(suite)])
        assert rc == 2

    @pytest.mark.parametrize("entry, named", [
        ({"id": 1}, "needs inner"),
        ({"inner": [4, 3, 2]}, "needs an integer id"),
        ({"id": 1, "inner": [4, 3]}, "needs inner"),
    ])
    def test_fitone_rejects_a_malformed_suite_entry(self, tmp_path, capsys, entry, named):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"suite": [entry]}))
        one = tmp_path / "one.csv"
        save_shipments([Shipment(id=99, cartons=(Carton(Dims3(3, 2, 1)),))], one)
        rc = main(["fitone", "--shipment", str(one), "--suite", str(suite)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(suite) in err and "entry 0" in err and named in err

    def test_finetune_rejects_malformed_locks(self, recommended, capsys):
        (tmp, bpath, spath), suite = recommended
        payload = json.loads(suite.read_text())
        payload["locked"] = "1"
        suite.write_text(json.dumps(payload))
        rc = main(["finetune", "--suite", str(suite), "--boxes", bpath,
                   "--deltas=0", "--out", str(tmp / "tuned.csv")])
        assert rc == 2
        assert "locked" in capsys.readouterr().err


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--badflag"])
        assert exc.value.code == 2

    def test_help_via_subprocess(self):
        # The child imports the package from where this process found it,
        # whether that is an install or pytest's pythonpath setting.
        src = str(Path(boxsuite.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "boxsuite.cli", "--help"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        for cmd in ("fit", "recommend", "validate", "compare", "finetune",
                    "fitone"):
            assert cmd in proc.stdout


class TestInternalError:
    @pytest.fixture
    def broken_fit(self, fixture_files, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("scan exploded")
        monkeypatch.setattr("boxsuite.cli.compute_fit_matrix", boom)
        tmp, bpath, spath = fixture_files
        return ["fit", "--boxes", bpath, "--shipments", spath,
                "--out", str(tmp / "fit.csv")]

    def test_exit_3_prints_only_the_message(self, broken_fit, capsys):
        assert main(broken_fit) == 3
        assert capsys.readouterr().err == "internal error: scan exploded\n"

    def test_debug_prints_the_traceback(self, broken_fit, capsys):
        assert main(["--debug", *broken_fit]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: scan exploded" in err
        assert err.endswith("internal error: scan exploded\n")
