import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from carnotreach import boundary_atlas
from carnotreach.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_word(tmp_path, letters, durations, name="word.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"letters": letters, "durations": durations}))
    return str(path)


def test_endpoint_empty_word(tmp_path, capsys):
    path = write_word(tmp_path, [], [])
    code, out, _ = run(capsys, "endpoint", path)
    assert code == 0
    assert json.loads(out) == {"x": [0, 0, 0], "y": [0, 0, 0]}


def test_pqr_vertex_word(tmp_path, capsys):
    path = write_word(tmp_path, [1, 2, 3], [1, 1, 1])
    code, out, _ = run(capsys, "pqr", path)
    assert code == 0
    assert json.loads(out) == {"p": 1.0, "q": 1.0, "r": 0.0}


def test_member_not_found(capsys):
    code, out, _ = run(capsys, "member", "--p", "0.7", "--q", "0.7", "--r", "0.7")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "not-found"
    assert "witness" not in data


def test_member_attained_witness_reproduces(capsys):
    code, out, _ = run(capsys, "member", "--p", "0.5", "--q", "0.5", "--r", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "attained"
    assert data["residual"] <= 1e-7
    assert set(data["witness"]) == {"letters", "durations"}


def test_member_certified_not_found(capsys):
    code, out, _ = run(capsys, "member", "--p", "0.2", "--q", "0.2", "--r", "0.2")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "not-found"
    assert data["certificate"] == "sum-bound"
    assert data["starts_used"] == 0


def test_member_non_finite_is_a_domain_error(capsys):
    code, out, err = run(capsys, "member", "--p", "nan", "--q", "0.5", "--r", "0.5")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "pqr-finite"


def test_endpoint_non_finite_output_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"letters": [1, 2, 3], "durations": [1e308, 1e308, 1e308]}'))
    code, out, err = run(capsys, "endpoint", "-")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "output-finite",
        "message": "output must be finite JSON: Out of range float values are not JSON compliant: inf",
    }


def test_simulate_adjoint_non_finite_output_is_a_domain_error(tmp_path, capsys):
    # the covector is finite, but K = h12 + h23 + h31 - C overflows; the
    # error is raised before the switch CSV is written
    csv_path = tmp_path / "events.csv"
    argv = ["simulate-adjoint", "--h", "1,0.5,0.2", "--skew", "1e308,-1e308,1e308", "--horizon", "0"]
    code, out, err = run(capsys, *argv, "--out-csv", str(csv_path))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "output-finite"
    assert not csv_path.exists()


# exact bytes of `member --max-arcs 5 --seed 3`: below the closed form's six
# arcs, both points are swept, so the attained bytes hold for the OpenBLAS
# kernel they were recorded on (see tests/test_attainability.py)
GOLDEN_MEMBER = {
    ("0.6", "0.5", "0.4"): (
        '{\n  "status": "attained",\n  "residual": 1.2483976575904067e-11,\n'
        '  "starts_used": 1206,\n  "witness": {\n    "letters": [\n      1,\n'
        '      3,\n      2,\n      3,\n      1\n    ],\n    "durations": [\n'
        '      0.6000000000074737,\n      0.5000000000066438,\n      1.0,\n'
        '      0.49999999999335626,\n      0.39999999999252644\n    ]\n  },\n'
        '  "max_arcs": 5\n}\n'
    ),
    ("0.36", "0.24", "0.45"): (
        '{\n  "status": "not-found",\n  "residual": 0.02593712749248486,\n'
        '  "starts_used": 1206,\n  "max_arcs": 5\n}\n'
    ),
}


# exact bytes of `member --seed 3 <flags>`: (0.6, 0.5, 0.4) is reached by the
# closed-form word in Python floats, so its bytes hold on any CPU;
# (0.36, 0.24, 0.45) gets no closed-form word and is swept to the residual
# above.  The verdict is checked first
GOLDEN_TABLE_MEMBER = {
    ("0.6", "0.5", "0.4"): ((), (
        '{\n  "status": "attained",\n  "residual": 0.0,\n'
        '  "starts_used": 0,\n  "witness": {\n    "letters": [\n      1,\n'
        '      2,\n      3,\n      1,\n      3,\n      2\n    ],\n'
        '    "durations": [\n      0.19999999999999996,\n      0.5,\n      0.5,\n'
        '      0.8,\n      0.5,\n      0.5\n    ]\n  },\n  "max_arcs": 8\n}\n'
    )),
    ("0.36", "0.24", "0.45"): (("--max-arcs", "6"), (
        '{\n  "status": "not-found",\n  "residual": 0.02593712749248486,\n'
        '  "starts_used": 3006,\n  "max_arcs": 6\n}\n'
    )),
}


@pytest.mark.parametrize("point", sorted(GOLDEN_MEMBER))
def test_member_golden_output(capsys, point):
    p, q, r = point
    code, out, _ = run(capsys, "member", "--p", p, "--q", q, "--r", r, "--max-arcs", "5", "--seed", "3")
    assert code == 0
    assert out == GOLDEN_MEMBER[point]


@pytest.mark.parametrize("point", sorted(GOLDEN_TABLE_MEMBER))
def test_member_golden_output_from_the_table(capsys, point):
    p, q, r = point
    flags, golden = GOLDEN_TABLE_MEMBER[point]
    code, out, _ = run(capsys, "member", "--p", p, "--q", q, "--r", r, "--seed", "3", *flags)
    assert code == 0

    def verdict(d):
        return d["status"], d["starts_used"], d.get("witness", {}).get("letters")

    assert verdict(json.loads(out)) == verdict(json.loads(golden))
    assert out == golden


def test_member_byte_identical_reruns(capsys):
    args = ("member", "--p", "0.41", "--q", "0.52", "--r", "0.63", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_simulate_adjoint(tmp_path, capsys):
    csv_path = str(tmp_path / "switches.csv")
    code, out, _ = run(
        capsys,
        "simulate-adjoint",
        "--h", "0.5,0.8,1.0",
        "--skew", "1.0,-1.0,1.0",
        "--horizon", "10",
        "--out-csv", csv_path,
    )
    assert code == 0
    data = json.loads(out)
    assert data["regime"] == "bang-bang"
    assert data["word"]["letters"][0] == 3
    header = Path(csv_path).read_text().splitlines()[0]
    assert header == "t,h1,h2,h3"


def test_second_order_subcommand(tmp_path, capsys):
    # symmetric cycle: covector with h12 = h23 = h31 = 1 synthesizes unit arcs
    code, out, _ = run(
        capsys,
        "simulate-adjoint", "--h", "0,1,1", "--skew", "1.0,-1.0,1.0", "--horizon", "5.5",
    )
    assert code == 0
    word = json.loads(out)["word"]
    path = write_word(tmp_path, word["letters"], word["durations"])
    code, out, _ = run(
        capsys, "second-order", "--word", path, "--h", "0,1,1", "--skew", "1.0,-1.0,1.0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "not-optimal"
    assert data["W_dim"] == 1


def test_second_order_normalizes_its_covector_like_simulate_adjoint(tmp_path, capsys):
    # a covector and its positive multiple lie on one ray and give one verdict
    code, out, _ = run(
        capsys,
        "simulate-adjoint", "--h", "0,2,2", "--skew", "2,-2,2", "--horizon", "5.5",
    )
    assert code == 0
    word = json.loads(out)["word"]
    assert word["letters"] == [2, 1, 3, 2, 1, 3]
    path = write_word(tmp_path, word["letters"], word["durations"])
    reports = []
    for h, skew in (("0,1,1", "1,-1,1"), ("0,2,2", "2,-2,2")):
        code, out, _ = run(capsys, "second-order", "--word", path, "--h", h, "--skew", skew)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["verdict"] == reports[1]["verdict"] == "not-optimal"
    assert reports[0]["W_dim"] == reports[1]["W_dim"] == 1


def test_second_order_rejects_a_word_its_covector_does_not_synthesize(tmp_path, capsys):
    # h = (0, 1, 1) starts on the edge {2, 3}, so the synthesized word does not open with letter 1
    path = write_word(tmp_path, [1, 2, 1], [1.0, 1.0, 1.0])
    code, out, err = run(
        capsys, "second-order", "--word", path, "--h", "0,1,1", "--skew", "1.0,-1.0,1.0"
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "word-covector"


def test_second_order_consistency_flag_is_gone(tmp_path, capsys):
    path = write_word(tmp_path, [1, 2, 3], [1.0, 1.0, 1.0])
    with pytest.raises(SystemExit) as exc:
        main(["second-order", "--word", path, "--h", "1,0,0", "--skew", "1,1,1", "--no-consistency-check"])
    assert exc.value.code == 2


def test_dice_subcommand(tmp_path, capsys):
    spec = [[[1.0, 1.0]], [[2.0, 1.0]], [[3.0, 1.0]]]
    path = tmp_path / "dice.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "dice", str(path))
    assert code == 0
    assert json.loads(out) == {"p": 1.0, "q": 1.0, "r": 0.0}


def test_dice_error_is_machine_readable(tmp_path, capsys):
    spec = [[[1.0, 1.0]], [[1.0, 1.0]], [[3.0, 1.0]]]
    path = tmp_path / "dice.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "dice", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "tie-mass"


def test_mc_verify(tmp_path, capsys):
    csv_path = str(tmp_path / "mc.csv")
    code, out, _ = run(
        capsys, "mc-verify", "--n", "5", "--seed", "1", "--out-csv", csv_path
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["dice_max_q_margin", "n", "words_max_q_margin"]
    assert data["dice_max_q_margin"] <= 1e-12 and data["words_max_q_margin"] <= 1e-12
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0] == "kind,p,q,r,q_margin"
    assert [line.split(",")[0] for line in lines[1:]] == ["dice"] * 5 + ["word"] * 5


def test_mc_verify_golden_output(tmp_path, capsys):
    # sha256 of stdout followed by the CSV; the margins are Python-float
    # arithmetic on exact double sums, so the bytes hold on any BLAS kernel
    csv_path = str(tmp_path / "mc.csv")
    code, out, _ = run(capsys, "mc-verify", "--n", "6", "--seed", "1", "--out-csv", csv_path)
    assert code == 0
    rows = Path(csv_path).read_text().splitlines()[1:]
    assert len(rows) == 12 and all(float(row.split(",")[4]) <= 1e-12 for row in rows)
    text = out + Path(csv_path).read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0626e1562564f17ed36b3646e7535197b91e5588d7ac5107f65e058f53ef1e1b"
    )


def test_mc_verify_calls_no_solver(capsys, monkeypatch):
    from carnotreach import attainability

    def no_solve(*args, **kwargs):
        raise AssertionError("mc-verify called the solver")

    monkeypatch.setattr(attainability, "fit", no_solve)
    code, out, err = run(capsys, "mc-verify", "--n", "20", "--atoms-max", "6")
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 20


def test_atlas_subcommand(tmp_path, capsys):
    obj_path = str(tmp_path / "mesh.obj")
    csv_path = str(tmp_path / "strata.csv")
    code, out, _ = run(
        capsys,
        "atlas",
        "--resolution", "4",
        "--out-obj", obj_path,
        "--out-csv", csv_path,
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] > 0
    assert data["prober_failures"] == 0
    assert Path(obj_path).read_text().splitlines()[0].startswith("v ")
    assert Path(csv_path).read_text().splitlines()[0] == "label,params,p,q,r,witness"


def test_atlas_files_are_pinned(tmp_path, capsys):
    # the OBJ digest is OBJ_SHA256[3] and the CSV digest the strata_csv pin at
    # resolution 3, both in tests/test_boundary_atlas.py
    obj_path, csv_path = tmp_path / "mesh.obj", tmp_path / "strata.csv"
    code, out, _ = run(
        capsys, "atlas", "--resolution", "3", "--out-obj", str(obj_path), "--out-csv", str(csv_path)
    )
    assert code == 0
    assert json.loads(out) == {
        "vertices": 24,
        "groups": {f"flat-{uwv}": 4 for uwv in ("123", "231", "312", "321", "213", "132")},
        "samples": 108,
        "prober_failures": 0,
        "obj": str(obj_path),
        "csv": str(csv_path),
    }
    assert hashlib.sha256(obj_path.read_bytes()).hexdigest() == (
        "6c098e5ba29081c557af3bbfcff0b09cdc4afab5c211ba35214e2c323dd47fff"
    )
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "e5c9b6d9f572529699983f558765a2e5d47f618a5634a048830ae7608bd51013"
    )


@pytest.mark.parametrize("resolution", ["2", "3"])
def test_atlas_samples_each_stratum_once(tmp_path, capsys, monkeypatch, resolution):
    # the mesh and the CSV are built from one sampling pass over the 30 strata
    sample_grid, sampled = boundary_atlas.FacePatch.sample_grid, []

    def counted(patch, resolution):
        sampled.append(patch.id)
        return sample_grid(patch, resolution)

    monkeypatch.setattr(boundary_atlas.FacePatch, "sample_grid", counted)
    code, _, _ = run(
        capsys,
        "atlas",
        "--resolution", resolution,
        "--out-obj", str(tmp_path / "mesh.obj"),
        "--out-csv", str(tmp_path / "strata.csv"),
    )
    assert code == 0
    assert len(sampled) == len(set(sampled)) == 30


def test_atlas_rejects_an_oversized_resolution(tmp_path, capsys):
    obj_path, csv_path = tmp_path / "mesh.obj", tmp_path / "strata.csv"
    code, out, err = run(
        capsys, "atlas", "--resolution", "148", "--out-obj", str(obj_path), "--out-csv", str(csv_path)
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "resolution"
    assert not obj_path.exists() and not csv_path.exists()


def test_atlas_removes_its_written_files_when_a_later_one_fails(tmp_path, capsys):
    obj_path, csv_path = tmp_path / "mesh.obj", tmp_path / "nodir" / "strata.csv"
    code, out, err = run(
        capsys, "atlas", "--resolution", "2", "--out-obj", str(obj_path), "--out-csv", str(csv_path)
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert list(tmp_path.iterdir()) == []


def test_atlas_rejects_one_path_for_both_outputs(tmp_path, capsys):
    path = tmp_path / "out"
    code, out, err = run(
        capsys, "atlas", "--resolution", "2", "--out-obj", str(path), "--out-csv", os.path.join(tmp_path, ".", "out")
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "output-path"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("letters", [[1.5, 2, 3], [True, 2, 3]])
def test_pqr_rejects_non_integer_letters(tmp_path, capsys, letters):
    code, out, err = run(capsys, "pqr", write_word(tmp_path, letters, [1, 1, 1]))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "word-letter"


@pytest.mark.parametrize("durations", [[True, "1", 1], [1, 1, "1"], [1, False, 1], [10**400, 1, 1]])
def test_pqr_rejects_non_real_durations(tmp_path, capsys, durations):
    code, out, err = run(capsys, "pqr", write_word(tmp_path, [1, 2, 3], durations))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "word-duration"


def test_member_rejects_an_oversized_solver(capsys):
    code, out, err = run(capsys, "member", "--p", "0.5", "--q", "0.5", "--r", "0.5", "--max-arcs", "14")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "solver-size"


def test_member_rejects_a_nan_tol(capsys):
    code, out, err = run(capsys, "member", "--p", "0.5", "--q", "0.5", "--r", "0.5", "--tol", "nan")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "tol"


def test_member_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "member", "--p", "0.5", "--q", "0.5", "--r", "0.5", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "seed"


@pytest.mark.parametrize(
    "flags, error",
    [
        (("--h", "nan,1,1"), "covector"),
        (("--h", "0.5,0.8,1.0", "--horizon", "inf"), "horizon"),
        (("--h", "a,1,1"), "triple"),
    ],
    ids=["nan-h", "inf-horizon", "non-numeric-h"],
)
def test_simulate_adjoint_rejects_non_finite_input(capsys, flags, error):
    code, out, err = run(capsys, "simulate-adjoint", "--skew", "1.0,-1.0,1.0", *flags)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == error


def test_simulate_adjoint_bounds_the_switches(capsys):
    # each step is absorbed by the remaining 1e300, so the horizon never runs down
    start = time.perf_counter()
    code, out, err = run(
        capsys, "simulate-adjoint", "--h", "0.5,0.8,1.0", "--skew", "1.0,-1.0,1.0", "--horizon", "1e300"
    )
    assert time.perf_counter() - start < 10.0
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "switches"


def test_simulate_adjoint_names_an_overflowing_normalization(capsys):
    code, out, err = run(capsys, "simulate-adjoint", "--h", "5e-324,0,0", "--skew", "1,1,1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "normalize-range"


def test_mc_verify_rejects_zero_atoms_max(capsys):
    code, out, err = run(capsys, "mc-verify", "--n", "2", "--atoms-max", "0")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "atoms-max"


def test_mc_verify_checks_atoms_max_before_any_draw(capsys, monkeypatch):
    from carnotreach import probability

    def no_draw(*args, **kwargs):
        raise AssertionError("dice drawn before --atoms-max was checked")

    monkeypatch.setattr(probability, "random_dice_triple", no_draw)
    code, out, err = run(capsys, "mc-verify", "--n", "30", "--atoms-max", "0")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "atoms-max"


def test_mc_verify_rejects_an_oversized_atoms_max(tmp_path, capsys):
    from carnotreach.probability import MAX_DICE_ATOMS

    csv_path = tmp_path / "dice.csv"
    code, out, err = run(
        capsys, "mc-verify", "--n", "2", "--atoms-max", str(MAX_DICE_ATOMS + 1), "--out-csv", str(csv_path)
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "atoms-max"
    assert not csv_path.exists()


def test_mc_verify_rejects_an_oversized_n_before_any_draw(tmp_path, capsys, monkeypatch):
    from carnotreach import probability

    def no_draw(*args, **kwargs):
        raise AssertionError("dice drawn before --n was checked")

    monkeypatch.setattr(probability, "random_dice_triple", no_draw)
    csv_path = tmp_path / "mc.csv"
    code, out, err = run(capsys, "mc-verify", "--n", str(probability.MAX_TRIALS + 1), "--out-csv", str(csv_path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "n-trials"
    assert not csv_path.exists()


def test_mc_verify_names_a_negative_seed_before_any_draw(capsys, monkeypatch):
    from carnotreach import probability

    def no_draw(*args, **kwargs):
        raise AssertionError("dice drawn before --seed was checked")

    monkeypatch.setattr(probability, "random_dice_triple", no_draw)
    code, out, err = run(capsys, "mc-verify", "--n", "1", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "seed"


def test_readme_command_lines_parse():
    # every `carnotreach ...` line of the README's shell blocks, with `\`
    # continuations joined and comments dropped, is a valid command line, so
    # a removed flag cannot stay documented
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    commands = []
    for line in "".join(blocks).replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if "carnotreach" in tokens:
            commands.append(tokens[tokens.index("carnotreach") + 1 :])
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README: carnotreach {shlex.join(argv)} is a usage error")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_invalid_word_json_exit_code(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text(json.dumps({"letters": [1, 2]}))
    code, out, err = run(capsys, "pqr", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "word-json"


def test_endpoint_rejects_infinite_duration(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text('{"letters": [1, 2, 3], "durations": [Infinity, 1, 1]}')
    code, out, err = run(capsys, "endpoint", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "word-duration"


def test_dice_rejects_nan_value(tmp_path, capsys):
    path = tmp_path / "dice.json"
    path.write_text("[[[NaN, 1.0]], [[1.0, 1.0]], [[2.0, 1.0]]]")
    code, out, err = run(capsys, "dice", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "dice-finite"


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "pqr", "-"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag", [["--probe-starts", "4"], ["--probe-max-arcs", "6"], ["--seed", "0"], ["--eps", "1e-3"]]
)
def test_atlas_probe_flags_are_gone(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "--out-obj", str(tmp_path / "m.obj"), "--out-csv", str(tmp_path / "s.csv"), *flag])
    assert exc.value.code == 2


def test_simulate_adjoint_golden_output(tmp_path, capsys):
    # sha256 of stdout followed by the switch CSV for the README example,
    # recorded while switch_events_csv synthesized the word a second time
    csv_path = str(tmp_path / "switches.csv")
    code, out, _ = run(
        capsys,
        "simulate-adjoint",
        "--h", "0.5,0.8,1.0",
        "--skew", "1.0,-1.0,1.0",
        "--horizon", "20",
        "--out-csv", csv_path,
    )
    assert code == 0
    text = out + Path(csv_path).read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6965f9b1b4ac66f0d822b0cb3a6e4d6e9af392ea51ad4b0967a7a3a20b99d86c"
    )


@pytest.mark.parametrize("command", ["pqr", "endpoint"])
@pytest.mark.parametrize(
    "payload",
    [
        {"letters": 5, "durations": 5},
        {"letters": [1, 2, 3], "durations": 1},
        {"letters": "123", "durations": [1, 1, 1]},
        {"letters": {"1": 1}, "durations": [1]},
        [1, 2, 3],
    ],
)
def test_word_commands_name_a_malformed_word(tmp_path, capsys, command, payload):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "word-json"


@pytest.mark.parametrize("command", ["pqr", "endpoint"])
def test_word_commands_read_stdin(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"letters": [1, 2, 3], "durations": [1, 1, 1]}'))
    code, out, _ = run(capsys, command, "-")
    assert code == 0
    expected = {"p": 1.0, "q": 1.0, "r": 0.0} if command == "pqr" else {"x": [1.0, 1.0, 1.0], "y": [1.0, 1.0, 1.0]}
    assert json.loads(out) == expected


@pytest.mark.parametrize(
    "payload",
    [
        [[["1", True]], [[2, 1]], [[3, 1]]],
        [[[1, True]], [[2, 1]], [[3, 1]]],
        [[[1, 1, 1]], [[2, 1]], [[3, 1]]],
        [[["a", 1]], [[2, 1]], [[3, 1]]],
        [[1], [[2, 1]], [[3, 1]]],
        [5, [[2, 1]], [[3, 1]]],
        [[[1, 1]], [[2, 1]]],
        {"dice": []},
        "dice",
    ],
)
def test_dice_names_a_malformed_payload(tmp_path, capsys, payload):
    path = tmp_path / "dice.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "dice", str(path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "dice-json"


def test_commands_open_files_without_the_locale_encoding(tmp_path):
    # -X warn_default_encoding warns at every open() that leaves the encoding
    # to the locale, and -W error turns the warning into a failure
    word = write_word(tmp_path, [2, 1, 3, 2, 1, 3], [1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
    dice = tmp_path / "dice.json"
    dice.write_text(json.dumps([[[1.0, 1.0]], [[2.0, 1.0]], [[3.0, 1.0]]]))
    commands = [
        ["endpoint", word],
        ["pqr", write_word(tmp_path, [1, 2, 3], [1, 1, 1], name="section.json")],
        ["dice", str(dice)],
        ["second-order", "--word", word, "--h", "0,1,1", "--skew", "1,-1,1"],
        ["simulate-adjoint", "--h", "0.5,0.8,1.0", "--skew", "1,-1,1", "--out-csv", str(tmp_path / "sw.csv")],
        ["atlas", "--resolution", "2", "--out-obj", str(tmp_path / "a.obj"), "--out-csv", str(tmp_path / "a.csv")],
        ["mc-verify", "--n", "2", "--out-csv", str(tmp_path / "mc.csv")],
    ]
    src = str(Path(boundary_atlas.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "carnotreach.cli"]
    for argv in commands:
        done = subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
    for name in ("sw.csv", "a.obj", "a.csv", "mc.csv"):
        assert (tmp_path / name).is_file()
