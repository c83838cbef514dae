import json

import pytest

from arborcheck.cli import TETRAHEDRON, Y_GRAPH, main


@pytest.fixture()
def tetra_file(tmp_path):
    p = tmp_path / "tetra.json"
    p.write_text(json.dumps(TETRAHEDRON))
    return str(p)


@pytest.fixture()
def y_file(tmp_path):
    p = tmp_path / "y.json"
    p.write_text(json.dumps(Y_GRAPH))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys, tetra_file):
    code, doc = run(capsys, ["validate", tetra_file])
    assert code == 0
    assert doc["vertices"] == 4 and doc["arborescent"] is False


def test_validate_disconnected(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "vertices": [{"id": "a", "self": -2}, {"id": "b", "self": -2}],
        "edges": [],
    }))
    code, doc = run(capsys, ["validate", str(p)])
    assert code == 2
    assert "connected" in doc["error"]


def test_missing_file(capsys):
    code, doc = run(capsys, ["validate", "/nonexistent/x.json"])
    assert code == 2


def test_brackets_table(capsys, tetra_file):
    code, doc = run(capsys, ["brackets", tetra_file])
    assert code == 0
    assert doc["E1"]["E1"] == "2/5"
    assert doc["E2"]["E4"] == "1/5"


def test_rho_output(capsys, tetra_file):
    code, doc = run(capsys, ["rho", tetra_file, "-F", "E1", "E2"])
    assert code == 0
    assert doc["E1"]["E2"]["q"] == "1/4"


def test_triple_report(capsys, tetra_file):
    code, doc = run(capsys, ["triple", tetra_file, "E1", "E3", "E2"])
    assert code == 0
    assert doc["equality"] is False and doc["separates"] is False
    assert doc["spherical_angle"] < 1.5707963


def test_bricks_and_bvt(capsys, tetra_file):
    code, doc = run(capsys, ["bricks", tetra_file])
    assert code == 0
    assert doc["cut_vertices"] == [] and len(doc["bricks"]) == 1
    code, doc = run(capsys, ["bvt", tetra_file])
    assert code == 0
    assert sum(1 for n in doc["nodes"] if n["kind"] == "brick") == 1


def test_bvt_dot(capsys, tetra_file):
    code = main(["bvt", tetra_file, "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert "graph bvt {" in out and "shape=box" in out


def test_hull_exit_codes(capsys, tetra_file):
    code, doc = run(capsys, ["hull", tetra_file, "-F", "E1", "E2", "E3"])
    assert code == 0 and doc["ok"] is True
    code, doc = run(capsys, ["hull", tetra_file, "-F", "E1", "E2", "E3", "E4"])
    assert code == 1 and doc["ok"] is False


def test_ultra_report(capsys, tetra_file):
    code, doc = run(capsys, ["ultra", tetra_file, "-F", "E1", "E2", "E3", "E4", "-L", "E1"])
    assert code == 0
    assert doc["hull_valency_ok"] is False
    assert doc["ultrametric_ok"] is True
    assert doc["u_L_table"]["E2"]["E3"] == "1/5"
    assert any("ball_diameter" in n for n in doc["ultra_tree"]["nodes"])


def test_treehull_report(capsys, tetra_file):
    code, doc = run(capsys, ["treehull", tetra_file, "-F", "E1", "E2", "E3"])
    assert code == 0
    assert doc["ok"] is True
    assert all("length" in e for e in doc["edges"])


def test_blowup_roundtrip(capsys, tetra_file, tmp_path):
    out = tmp_path / "blown.json"
    code, doc = run(capsys, ["blowup", tetra_file, "--satellite", "E1", "E2",
                             "--id", "E5", "-o", str(out)])
    assert code == 0
    selfs = {v["id"]: v["self"] for v in doc["vertices"]}
    assert selfs == {"E1": -5, "E2": -5, "E3": -4, "E4": -4, "E5": -1}
    code2, doc2 = run(capsys, ["brackets", str(out)])
    assert code2 == 0 and doc2["E1"]["E2"] == "1/5"


def test_counterexample(capsys, tetra_file, tmp_path):
    code, doc = run(capsys, ["counterexample", tetra_file, "-l", "E1"])
    assert code == 0
    assert doc["s"] == 1 and doc["t"] == 2
    assert doc["products"] == ["8/25", "9/25", "2/5"]
    a3 = tmp_path / "a3.json"
    a3.write_text(json.dumps({
        "vertices": [{"id": "E1", "self": -2}, {"id": "E2", "self": -2}, {"id": "E3", "self": -2}],
        "edges": [["E1", "E2"], ["E2", "E3"]],
    }))
    code, doc = run(capsys, ["counterexample", str(a3), "-l", "E1"])
    assert code == 2


def test_valbracket(capsys, tetra_file):
    code, doc = run(capsys, ["valbracket", tetra_file, "div(E1)", "qm(E1,E2;1/2,1/2)"])
    assert code == 0 and doc["bracket"] == "3/10"
    code, doc = run(capsys, ["valbracket", tetra_file, "curve(E1:1)", "curve(E1:1)"])
    assert code == 0 and doc["bracket"] == "inf"


def test_fourpoint_boundary(capsys, y_file):
    code, doc = run(capsys, ["fourpoint", y_file, "qm(E2,E5;5/6,1/6)",
                             "div(E1)", "div(E3)", "div(E4)", "--scale", "6400"])
    assert code == 0
    assert doc["I1"] == doc["I2"] == doc["I3"] == "100"
    assert doc["verdict"] is True
    code, doc = run(capsys, ["fourpoint", y_file, "qm(E2,E5;11/12,1/12)",
                             "div(E1)", "div(E3)", "div(E4)", "--scale", "6400"])
    assert code == 1 and doc["verdict"] is False


def test_hypothesis_command(capsys, tetra_file):
    code, doc = run(capsys, ["hypothesis", tetra_file, "div(E1)",
                             "qm(E1,E2;1/2,1/2)", "div(E3)", "div(E4)"])
    assert code == 1 and doc["ok"] is False
    code, doc = run(capsys, ["hypothesis", tetra_file, "div(E1)", "div(E2)", "div(E3)"])
    assert code == 0 and doc["ok"] is True


def test_golden(capsys):
    code, doc = run(capsys, ["golden"])
    assert code == 0
    assert doc["failures"] == []


def test_fuzz_reproducible(capsys):
    code1, doc1 = run(capsys, ["fuzz", "--models", "4", "--seed", "11"])
    code2, doc2 = run(capsys, ["fuzz", "--models", "4", "--seed", "11"])
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_fuzz_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("ARBORCHECK_SEED", "42")
    code, doc = run(capsys, ["fuzz", "--models", "2", "--seed", "7"])
    assert code == 0
    assert doc["seed"] == 42


def test_reports_round_trip_through_json(capsys, tetra_file):
    for argv in (
        ["brackets", tetra_file],
        ["ultra", tetra_file, "-F", "E1", "E2", "E3", "-L", "E1"],
        ["counterexample", tetra_file, "-l", "E2"],
    ):
        code, doc = run(capsys, argv)
        assert json.loads(json.dumps(doc)) == doc


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["brackets"])  # missing file argument
    assert exc.value.code == 2


def test_fuzz_keeps_the_seed_on_any_exception(capsys, monkeypatch):
    from arborcheck import cli

    def boom(rng):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "fuzz_case", boom)
    code, doc = run(capsys, ["fuzz", "--models", "3", "--seed", "5"])
    assert code == 3
    assert [f["case"] for f in doc["failures"]] == [0, 1, 2]
    first = doc["failures"][0]
    assert first["type"] == "ZeroDivisionError" and first["error"] == "boom"
    assert [f["repro"] for f in doc["failures"]] == [
        f"ARBORCHECK_SEED=5 arborcheck fuzz --models {i}" for i in (1, 2, 3)
    ]


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, tetra_file):
    from arborcheck import lattice

    def boom(g):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setattr(lattice, "brackets", boom)
    code = main(["brackets", tetra_file])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out) == {"ok": False, "internal_error": "OverflowError: int too large to convert to float"}
    assert "Traceback" in err


@pytest.mark.parametrize("bad", [-2.7, -2.0, "-3", True, None, [-2]])
def test_self_intersection_must_be_a_json_integer(capsys, tmp_path, bad):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "vertices": [{"id": "a", "self": -2}, {"id": "b", "self": bad}],
        "edges": [["a", "b"]],
    }))
    code, doc = run(capsys, ["validate", str(p)])
    assert code == 2
    assert "malformed graph description" in doc["error"]

