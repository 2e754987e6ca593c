import csv
import io
import json
from pathlib import Path

import pytest

from mpfjss.cli import main
from mpfjss.model import load_instance, validate_instance

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "example.lp")

RELAXED_LP = "op(a,1). needs(a,w). res(w,1,a). job(j,5). recipe(j,a).\n"
OVERDUE_LP = "op(a,10). needs(a,w). res(w,1,a). job(j,3). recipe(j,a).\n"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_solve_stdout(capsys):
    code, out = run(capsys, "solve", EXAMPLE, "--strategy", "exp")
    assert code == 0
    report = json.loads(out)
    assert report["total_tardiness"] == 1
    assert report["cap"] == 1
    assert report["verdict"] == "optimal"
    assert report["schedule"]["assignments"]


def test_solve_inc_window(capsys):
    code, out = run(capsys, "solve", EXAMPLE, "--strategy", "inc",
                    "--window", "2")
    assert code == 0
    report = json.loads(out)
    assert report["cap"] == 2
    assert report["total_tardiness"] == 1


def test_solve_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "solve", EXAMPLE, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "optimal"


def test_solve_missing_file(capsys):
    code, _ = run(capsys, "solve", "no-such-file.lp")
    assert code == 2


def test_solve_unparsable(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("op(a.\n")
    code, _ = run(capsys, "solve", str(bad))
    assert code == 2


def test_solve_unsolvable(tmp_path, capsys):
    path = tmp_path / "stuck.lp"
    path.write_text(
        "op(a,1). needs(a,w). needs(a,m). res(w,1,a).\n"
        "job(j,5). recipe(j,a).\n"
    )
    code, _ = run(capsys, "solve", str(path))
    assert code == 3


def test_solve_timeout_exit_code(capsys):
    code, out = run(capsys, "solve", EXAMPLE, "--timeout", "1e-9")
    assert code == 4
    assert json.loads(out)["verdict"] == "bound-not-found"


BIG = 2**41 + 1  # past the kernels' weight limit of 2**40
OUT_OF_RANGE = {
    "long-duration": f"op(a,{BIG}). op(b,1). needs(a,w). needs(b,w). res(w,1,a). res(w,1,b).\n"
                     "job(j,5). recipe(j,a). recipe(j,b). prec(j,a,b).\n",
    "late-deadline": f"op(a,1). needs(a,w). res(w,1,a). job(j,{BIG}). recipe(j,a).\n",
}


@pytest.mark.parametrize("name", OUT_OF_RANGE)
def test_times_out_of_range_exit_2(tmp_path, capsys, name):
    path = tmp_path / f"{name}.lp"
    path.write_text(OUT_OF_RANGE[name])
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("mpfjss: ") and captured.err.count("\n") == 1
    code, out = run(capsys, "bench", str(tmp_path))
    assert code == 0
    assert [(r["instance"], r["verdict"]) for r in parse_csv(out)] == [(name, "error")]


def test_cap_past_the_serial_length(capsys):
    # probes caps 0 and 2**40: the second stands for the serial length,
    # and the report keeps it as probed
    code, out = run(capsys, "solve", EXAMPLE, "--strategy", "inc",
                    "--window", str(2**40))
    assert code == 0
    report = json.loads(out)
    assert [p["bound"] for p in report["probes"]] == [0, 2**40]
    assert report["cap"] == 2**40
    assert report["total_tardiness"] == 1
    assert report["verdict"] == "optimal"


def test_validate_solver_output(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run(capsys, "solve", EXAMPLE, "--output", str(report_path))
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(
        json.dumps(json.loads(report_path.read_text())["schedule"])
    )
    code, out = run(capsys, "validate", EXAMPLE, str(sched_path))
    assert code == 0
    assert json.loads(out) == []


def test_validate_flags_corruption(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    run(capsys, "solve", EXAMPLE, "--output", str(report_path))
    sched = json.loads(report_path.read_text())["schedule"]
    sched["total_tardiness"] = 0
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(sched))
    code, out = run(capsys, "validate", EXAMPLE, str(sched_path))
    assert code == 1
    kinds = {v["kind"] for v in json.loads(out)}
    assert kinds == {"tardiness-miscomputed"}


def test_validate_garbage_schedule(tmp_path, capsys):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text("{not json")
    code, _ = run(capsys, "validate", EXAMPLE, str(sched_path))
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"assignments": [{"job": "j1", "op": "a", "end": 3, "resources": []}],'
    ' "tardiness": {}, "total_tardiness": 0}',
    '{"assignments": 3, "tardiness": {}, "total_tardiness": 0}',
    "[1]",
], ids=["missing-start", "assignments-not-a-list", "top-level-list"])
def test_validate_malformed_schedule(tmp_path, capsys, text):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(text)
    code = main(["validate", EXAMPLE, str(sched_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("mpfjss: malformed schedule JSON: ")


def test_generate_and_reload(tmp_path, capsys):
    outdir = tmp_path / "insts"
    code, out = run(
        capsys, "generate", "--seed", "3", "--days", "2", "--split", "2",
        "--op-types", "5", "--machines", "2", "--workers", "2",
        "--min-jobs", "3", "--max-jobs", "4", "--output", str(outdir),
    )
    assert code == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert "day01.lp" in names
    assert "day02.lp" in names
    assert any("_j02" in n for n in names)
    for path in outdir.iterdir():
        assert validate_instance(load_instance(path)) == []
    assert f"wrote {len(names)} instance files" in out


def test_generate_is_reproducible(tmp_path, capsys):
    args = ("generate", "--seed", "5", "--days", "1", "--split", "0",
            "--op-types", "4", "--machines", "2", "--workers", "2",
            "--min-jobs", "2", "--max-jobs", "3")
    run(capsys, *args, "--output", str(tmp_path / "a"))
    run(capsys, *args, "--output", str(tmp_path / "b"))
    assert (tmp_path / "a/day01.lp").read_text() == (tmp_path / "b/day01.lp").read_text()


def test_generate_json_format(tmp_path, capsys):
    outdir = tmp_path / "insts"
    code, _ = run(
        capsys, "generate", "--days", "1", "--split", "0", "--op-types", "4",
        "--machines", "2", "--workers", "2", "--min-jobs", "2",
        "--max-jobs", "2", "--format", "json", "--output", str(outdir),
    )
    assert code == 0
    inst = load_instance(outdir / "day01.json")
    assert validate_instance(inst) == []


def test_generate_rejects_bad_params(tmp_path, capsys):
    code, _ = run(capsys, "generate", "--min-jobs", "0",
                  "--output", str(tmp_path / "x"))
    assert code == 2


@pytest.fixture
def bench_dir(tmp_path):
    (tmp_path / "relaxed.lp").write_text(RELAXED_LP)
    (tmp_path / "overdue.lp").write_text(OVERDUE_LP)
    (tmp_path / "shared.lp").write_text((DATA / "example.lp").read_text())
    return tmp_path


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_bench_csv(bench_dir, capsys):
    code, out = run(capsys, "bench", str(bench_dir), "--strategy", "exp")
    assert code == 0
    rows = parse_csv(out)
    assert [r["instance"] for r in rows] == ["overdue", "relaxed", "shared"]
    assert [r["jobs"] for r in rows] == ["1", "1", "3"]
    by_name = {r["instance"]: r for r in rows}
    assert by_name["relaxed"]["verdict"] == "optimal"
    assert by_name["relaxed"]["total_tardiness"] == "0"
    assert by_name["relaxed"]["cap"] == "0"
    assert by_name["overdue"]["total_tardiness"] == "7"
    assert by_name["overdue"]["cap"] == "7"
    assert by_name["shared"]["total_tardiness"] == "1"
    assert all(float(r["search_s"]) >= 0 for r in rows)


def test_bench_multiple_strategies(bench_dir, capsys):
    code, out = run(capsys, "bench", str(bench_dir),
                    "--strategy", "exp", "--strategy", "single")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 6
    assert {r["strategy"] for r in rows} == {"exp", "single"}
    for row in rows:
        if row["instance"] == "shared":
            assert row["total_tardiness"] == "1"


def test_bench_parallel_matches_serial(bench_dir, capsys):
    def stable(text):
        return [
            (r["instance"], r["jobs"], r["strategy"], r["verdict"],
             r["total_tardiness"], r["cap"])
            for r in parse_csv(text)
        ]

    _, serial = run(capsys, "bench", str(bench_dir))
    _, parallel = run(capsys, "bench", str(bench_dir), "--jobs", "2")
    assert stable(serial) == stable(parallel)


def test_bench_records_errors(bench_dir, capsys):
    (bench_dir / "broken.lp").write_text("job(j1,)\n")
    for jobs in ("1", "2"):
        code = main(["bench", str(bench_dir), "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 0
        rows = parse_csv(captured.out)
        broken = [r for r in rows if r["instance"] == "broken"]
        assert len(broken) == 1
        assert broken[0]["verdict"] == "error"
        assert len(rows) == 4
        assert captured.err.splitlines() == [
            "mpfjss: broken exp: ParseError: unparsable text `job(j1,)` at line 1, column 1"
        ]


def test_bench_empty_dir(tmp_path, capsys):
    code, out = run(capsys, "bench", str(tmp_path))
    assert code == 0
    assert out.splitlines() == [
        "instance,jobs,strategy,verdict,search_s,opt_s,total_tardiness,cap"
    ]


def test_bench_json_format(bench_dir, capsys):
    code, out = run(capsys, "bench", str(bench_dir), "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert rows[0]["jobs"] == 1
    assert {"instance", "verdict", "total_tardiness"} <= set(rows[0])


def test_bench_missing_dir(capsys):
    code, _ = run(capsys, "bench", "no-such-dir")
    assert code == 1


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--window", "0"],
    ["solve", "--timeout", "0"],
    ["solve", "--timeout", "-1"],
    ["solve", "--timeout", "nan"],
    ["bench", "--window", "0"],
    ["bench", "--timeout", "0"],
    ["bench", "--jobs", "0"],
    ["bench", "--jobs", "-2"],
    ["generate", "--split", "-1"],
    ["generate", "--days", "0"],
    ["generate", "--days", "-3"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_bad_numeric_option_exits_2(tmp_path, capsys, argv):
    command, *options = argv
    inputs = {"solve": [EXAMPLE], "bench": [str(DATA)], "generate": []}[command]
    target = tmp_path / "out"
    code = main([command, *inputs, *options, "--output", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("mpfjss: ") and err.count("\n") == 1
    assert not target.exists()
