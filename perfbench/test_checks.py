"""Self-tests of the benchmark's correctness checks: each must flag a
corrupted output.  Fast: no solver search runs here.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

w.import_program()


def _attained(word):
    point = w.words.pqr(word)
    out = {"status": "attained", "residual": 0.0, "starts_used": 1, "witness": w.words.word_to_dict(word)}
    return out, (point.p, point.q, point.r)


def test_true_witness_passes():
    out, point = _attained(w.words.random_word(6, 3))
    w.check_attained(out, point, 1e-7)


def test_corrupted_witness_is_flagged():
    out, point = _attained(w.words.random_word(6, 3))
    # swap the durations of two arcs of one letter: still a section word, other (p, q, r)
    letters, durations = out["witness"]["letters"], out["witness"]["durations"]
    i, j = [k for k, letter in enumerate(letters) if letter == letters[0]][:2]
    durations[i], durations[j] = durations[j], durations[i]
    with pytest.raises(w.OpFailed, match="misses"):
        w.check_attained(out, point, 1e-7)


def test_witness_off_the_section_is_flagged():
    out, point = _attained(w.words.random_word(5, 4))
    out["witness"]["durations"][0] += 0.01
    with pytest.raises(w.OpFailed, match="not a section word"):
        w.check_attained(out, point, 1e-7)


def test_roundtrip_not_found_is_a_failure():
    _, point = _attained(w.words.random_word(4, 5))
    with pytest.raises(w.OpFailed, match="not attained"):
        w.check_attained({"status": "not-found", "residual": 0.1, "starts_used": 1}, point, 1e-7)


def test_flipped_verdict_is_flagged():
    out, point = _attained(w.words.random_word(6, 7))
    ref = {"p": point[0], "q": point[1], "r": point[2], "status": "attained"}
    w.check_cube_verdict(out, ref, 1e-7)
    with pytest.raises(w.OpFailed, match="flipped"):
        w.check_cube_verdict({"status": "not-found", "residual": 0.2, "starts_used": 9}, ref, 1e-7)


def test_not_found_to_attained_needs_a_witness():
    out, point = _attained(w.words.random_word(6, 8))
    ref = {"p": point[0], "q": point[1], "r": point[2], "status": "not-found"}
    w.check_cube_verdict(out, ref, 1e-7)  # a verifying witness: an improvement
    del out["witness"]
    with pytest.raises(w.OpFailed, match="no witness"):
        w.check_cube_verdict(out, ref, 1e-7)


def test_reference_pool_matches_its_generator():
    rows = w.load_cube_reference()
    assert len(rows) == w.CUBE_POOL_SIZE
    strata = w.cube_strata(rows)
    assert all(strata.values()), "every cube-scan stratum needs points"
    items = w.cube_pass_inputs(1, 0, strata)
    assert len(items) == sum(w.CUBE_PICKS.values())
    assert items == w.cube_pass_inputs(1, 0, strata)  # same seed, same inputs


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        w.strict_json('{"residual": NaN}')
    assert w.strict_json('{"residual": 0.5}') == {"residual": 0.5}


def test_obj_with_bad_face_is_flagged():
    good = "v 0 0 0\nv 1 0 0\nv 0 1 0\ng quadric-12312\nf 1 2 3\n"
    assert w.parse_obj(good) == {"vertices": 3, "groups": {"quadric-12312": 1}}
    with pytest.raises(w.OpFailed, match="out of range"):
        w.parse_obj(good + "f 1 2 4\n")
    with pytest.raises(w.OpFailed, match="bad vertex"):
        w.parse_obj("v 0 nan 0\n")


def test_broken_extremal_identity_is_flagged():
    item = w.extremals_pass_inputs(0, 0)[0]
    w.extremals_op(item)
    a = w.adjoint.normalize(item["covector"])
    word, _ = w.adjoint.synthesize(a, w.EXTREMALS_HORIZON)
    e = w.words.endpoint(word)
    bad = w.group.GroupElement(e.x, (e.y[0] + 1e-6, e.y[1], e.y[2]))
    p = w.words.pqr(w.words.to_section(word))
    with pytest.raises(w.OpFailed, match="multiply"):
        w.check_extremal(word, e, bad, p, p, word)
    with pytest.raises(w.OpFailed, match="canonicalize"):
        w.check_extremal(word, e, e, p, p, w.words.Word(word.arcs[:-1]))


def test_tail():
    assert run.tail([float(i) for i in range(1, 201)]) == (190.0, 95.0)
    assert run.tail([float(i) for i in range(1, 25)]) == (22.0, 100.0 * 22 / 24)
    assert run.tail([1.0, 5.0, 2.0]) == (5.0, 100.0)


def test_best_of_repeats_keeps_failures():
    fast, slow = w.Op(1.0), w.Op(2.0)
    assert run.best_of((slow, fast, slow)) is fast
    broken = w.Op(math.nan, failed=True, error="flipped")
    assert run.best_of((fast, broken)) is broken


def test_self_times_subtract_children():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, -1, "op0", (("command", "atlas"),)),
        tracing.Span("trim_and_mesh", 1.0, 9.0, 0, "op0"),
        tracing.Span("fit", 2.0, 5.0, 1, "op0", (("status", "attained"), ("starts", 7))),
        tracing.Span("fit", 5.0, 8.0, 1, "op0", (("status", "not-found"), ("starts", 9))),
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 3.0, 3.0]
    groups = tracing.layer_groups(spans, 1)
    assert groups["fit"] == {"fit.calls": 2, "fit.busy_s": 6.0, "fit.starts": 16}
    assert groups["prober.not_found"] == {"prober.not_found.calls": 1, "prober.not_found.busy_s": 3.0}
    assert groups["atlas"]["trim_and_mesh.self_s"] == 2.0
    assert groups["atlas"]["atlas.self_s"] == 2.0


def test_speed_correction_scales_to_the_nominal_speed():
    probe = speed.SpeedProbe()  # not entered: no thread, samples set by hand
    probe.starts = [0.0, 0.01, 0.02, 1.0, 1.01]
    probe.seconds = [2 * speed.NOMINAL_KERNEL_S] * 3 + [speed.NOMINAL_KERNEL_S] * 2
    # the kernel ran at half the nominal speed while this op ran
    assert probe.corrected(1.0, 0.0, 0.5) == pytest.approx(0.5)
    # a short op is judged by the kernel runs within MIN_WINDOW_S around it
    assert probe.corrected(0.01, 1.0, 1.01) == pytest.approx(0.01)
    with pytest.raises(RuntimeError, match="no speed probe"):
        probe.speed(5.0, 6.0)


def _atlas_pass(wall):
    """Spans of one traced atlas pass whose pieces add up to `wall`."""
    return [
        tracing.Span("cli.main", 0.0, wall, -1, "pass0:0", (("command", "atlas"),)),
        tracing.Span("trim_and_mesh", 0.1, wall - 0.2, 0, "pass0:0"),
        tracing.Span("fit", 0.2, wall - 0.4, 1, "pass0:0", (("status", "attained"), ("starts", 6))),
        tracing.Span("strata_csv", wall - 0.2, wall - 0.1, 0, "pass0:0"),
        tracing.Span("write_obj", wall - 0.1, wall - 0.05, 0, "pass0:0"),
    ]


def test_atlas_accounting_needs_the_untraced_wall():
    traced = [_atlas_pass(5.0), _atlas_pass(5.2)]
    ok = run.atlas_accounting(traced, [5.1, 6.5], 0.01)
    assert ok["accounted"] and ok["pairs"][0]["explained_s"] == pytest.approx(5.0)
    # untraced passes far faster than the trace explains: time was added or missed
    missed = run.atlas_accounting(traced, [3.0, 3.1], 0.01)
    assert not missed["accounted"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {x["name"] for x in spec["workloads"]} == set(run.WORKLOADS)
    groups = {tracing.group_of(m) for m in run.PER_LAYER} - {None}
    assert groups == set(tracing.GROUPS)
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
