"""Workload inputs, operations and correctness checks.

Every operation calls the program only through public functions of its
modules (`carnotreach.cli.main` with an argv for `member` and `atlas`),
and only those calls are timed, inside the op's `timed()` context (which
a traced run uses to record spans).  Inputs are generated from the run's
seed before the calls; checks run after them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"

CUBE_POOL_SEED = 20220305
CUBE_POOL_SIZE = 400
CUBE_PICKS = {"attained": 6, "screened": 1, "unscreened": 1}  # cube-scan points per pass

ROUNDTRIP_PASS = 60  # 30 hidden words (lengths 3..8, five each) + 30 dice triples
ROUNDTRIP_WORD_LENGTHS = (3, 4, 5, 6, 7, 8)
ROUNDTRIP_ATOMS_MAX = 4
# dice triples per pass by total atom count (each die has 1..4 atoms, uniform)
ROUNDTRIP_DICE_QUOTA = {4: 1, 5: 3, 6: 5, 7: 6, 8: 6, 9: 5, 10: 3, 11: 1}
ROUNDTRIP_STARTS = 8

ATLAS_RESOLUTION = 3

EXTREMALS_HORIZON = 20.0
EXTREMALS_ARCS = (8, 40)  # accepted range of the predicted arc count
EXTREMALS_BIN, EXTREMALS_PER_BIN = 4, 64  # covectors per pass by predicted arc count
EXTREMALS_PASS = (EXTREMALS_ARCS[1] - EXTREMALS_ARCS[0]) // EXTREMALS_BIN * EXTREMALS_PER_BIN
IDENTITY_TOL = 1e-9

# set by import_program()
cli = attainability = boundary_atlas = words = group = adjoint = second_order = probability = None


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


class OpFailed(RuntimeError):
    """An operation returned an error or an output that failed a check."""


def import_program() -> None:
    """Import carnotreach from this checkout's `src`, never from elsewhere."""
    global cli, attainability, boundary_atlas, words, group, adjoint, second_order, probability
    if not (SRC / "carnotreach" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'carnotreach'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import carnotreach
    from carnotreach import (
        adjoint as _adjoint,
        attainability as _attainability,
        boundary_atlas as _boundary_atlas,
        cli as _cli,
        group as _group,
        probability as _probability,
        second_order as _second_order,
        words as _words,
    )

    if Path(carnotreach.__file__).resolve().parent != (SRC / "carnotreach").resolve():
        raise ProgramMissing(f"carnotreach was imported from {carnotreach.__file__}, not {SRC}")
    cli, attainability, boundary_atlas, words = _cli, _attainability, _boundary_atlas, _words
    group, adjoint, second_order, probability = _group, _adjoint, _second_order, _probability


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def call_cli(argv: list[str]) -> str:
    """Run `carnotreach <argv>` in-process; return stdout, raise on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"carnotreach {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def member_argv(point, extra: list[str]) -> list[str]:
    p, q, r = (repr(float(v)) for v in point)
    return ["member", "--p", p, "--q", q, "--r", r, *extra]


def run_member(point, extra: list[str]) -> dict:
    return strict_json(call_cli(member_argv(point, extra)))


def witness_error(out: dict, point) -> float:
    """Distance from the target to the (p, q, r) of the reported witness."""
    try:
        got = words.pqr(words.word_from_dict(out["witness"]))
    except words.InvariantViolation as exc:
        raise OpFailed(f"witness for {tuple(point)} is not a section word: {exc}") from exc
    return math.dist((got.p, got.q, got.r), tuple(float(v) for v in point))


def check_attained(out: dict, point, tol: float) -> None:
    """An attained verdict must carry a witness reproducing the target within tol."""
    if out.get("status") != "attained":
        raise OpFailed(f"target {tuple(point)} not attained: {out.get('status')}")
    if "witness" not in out:
        raise OpFailed(f"attained verdict at {tuple(point)} has no witness")
    err = witness_error(out, point)
    if not err <= tol:
        raise OpFailed(f"witness misses {tuple(point)} by {err:.3g} > tol {tol:g}")


@dataclass
class Op:
    """One timed operation: latency of the program calls and its outcome."""

    seconds: float
    weight: float = 1.0  # share of the population that the op's stratum stands for
    failed: bool = False
    error: str | None = None
    info: dict = field(default_factory=dict)
    window: tuple[float, float] = (math.nan, math.nan)  # perf_counter() before and after the op
    raw_seconds: float = math.nan  # the latency before correction for the CPU's speed


# ---------------------------------------------------------------- roundtrip


def roundtrip_pass_inputs(seed: int, pass_index: int) -> list[dict]:
    """Five hidden words of each length 3..8 and 30 dice triples, alternating.

    Solver cost grows with the word length and with the total atom count
    of a dice triple, so both are stratified: the lengths are fixed and the
    dice are drawn until ROUNDTRIP_DICE_QUOTA (the distribution of the total
    atom count, rounded to 30) is filled.  The seed sets the words, the
    dice, their order and the solver seeds."""
    rng = np.random.default_rng([seed, pass_index, 1])
    lengths = rng.permutation(np.repeat(ROUNDTRIP_WORD_LENGTHS, ROUNDTRIP_PASS // 12))
    quota = dict(ROUNDTRIP_DICE_QUOTA)
    dice = []
    while len(dice) < ROUNDTRIP_PASS // 2:
        triple = probability.random_dice_triple(ROUNDTRIP_ATOMS_MAX, rng)
        atoms = sum(len(d.atoms) for d in triple)
        if quota.get(atoms, 0) > 0:
            quota[atoms] -= 1
            dice.append(triple)
    items = []
    for n, triple in zip(lengths, dice):
        w = words.random_word(int(n), int(rng.integers(2**31)))
        items.append({"kind": "word", "arcs": int(n), "word": w, "fit_seed": int(rng.integers(2**31))})
        items.append({"kind": "dice", "dice": triple, "fit_seed": int(rng.integers(2**31))})
    return items


def roundtrip_op(item: dict, timed=contextlib.nullcontext) -> Op:
    with timed():
        t0 = time.perf_counter()
        if item["kind"] == "word":
            target = words.pqr(item["word"])
        else:
            target = probability.dice_pqr(*item["dice"])
        point = (target.p, target.q, target.r)
        argv = member_argv(point, ["--starts", str(ROUNDTRIP_STARTS), "--seed", str(item["fit_seed"])])
        out_text = call_cli(argv)
        seconds = time.perf_counter() - t0
    out = strict_json(out_text)
    check_attained(out, point, attainability.DEFAULT_TOL)
    return Op(seconds, info={"status": out["status"], "kind": item["kind"], "arcs": item.get("arcs")})


# ---------------------------------------------------------------- cube-scan


def cube_pool_points() -> list[tuple[float, float, float]]:
    """The fixed pool of uniform points of the unit cube that cube-scan draws from."""
    rng = np.random.default_rng(CUBE_POOL_SEED)
    return [tuple(float(v) for v in row) for row in rng.uniform(0.0, 1.0, size=(CUBE_POOL_SIZE, 3))]


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def screen_flags(point) -> dict:
    """Which proven exclusion bounds a point violates (no program call)."""
    s = sum(point)
    return {
        "sum_bound": not (1.0 <= s <= 2.0),
        "golden_bound": min(point) > GOLDEN or max(point) < 1.0 - GOLDEN,
    }


def load_cube_reference() -> list[dict]:
    data = json.loads((REFERENCE / "cube_scan.json").read_text())
    rows = data["points"]
    if [(r["p"], r["q"], r["r"]) for r in rows] != cube_pool_points():
        raise OpFailed("cube-scan reference does not match the point pool")
    return rows


def cube_strata(reference: list[dict]) -> dict[str, list[int]]:
    """Split the pool by reference verdict and by the exclusion screens:
    attained points, not-found points a screen rejects, and not-found
    points that pass every screen (their cost stays a full solver sweep)."""
    strata: dict[str, list[int]] = {key: [] for key in CUBE_PICKS}
    for i, ref in enumerate(reference):
        if ref["status"] == "attained":
            key = "attained"
        elif any(screen_flags((ref["p"], ref["q"], ref["r"])).values()):
            key = "screened"
        else:
            key = "unscreened"
        strata[key].append(i)
    return strata


def cube_pass_inputs(seed: int, pass_index: int, strata: dict[str, list[int]]) -> list[tuple[int, str, float]]:
    """CUBE_PICKS points from each stratum as (pool index, stratum, share of
    the pool); weighting by the share makes run statistics estimate those
    of uniform points of the cube."""
    rng = np.random.default_rng([seed, pass_index, 2])
    size = sum(len(v) for v in strata.values())
    items = [
        (int(rng.choice(strata[key])), key, len(strata[key]) / size)
        for key, picks in CUBE_PICKS.items()
        for _ in range(picks)
    ]
    return [items[i] for i in rng.permutation(len(items))]


def cube_op(item: tuple[int, str, float], reference: list[dict], timed=contextlib.nullcontext) -> Op:
    index, stratum, share = item
    ref = reference[index]
    argv = member_argv((ref["p"], ref["q"], ref["r"]), [])
    with timed():
        t0 = time.perf_counter()
        out_text = call_cli(argv)
        seconds = time.perf_counter() - t0
    out = strict_json(out_text)
    check_cube_verdict(out, ref, attainability.DEFAULT_TOL)
    return Op(seconds, weight=share, info={"status": out["status"], "index": index, "stratum": stratum})


def check_cube_verdict(out: dict, ref: dict, tol: float) -> None:
    """Compare a verdict with the reference recorded at the seed commit.

    attained -> not-found is a failure; not-found -> attained passes only
    with a witness that reproduces the point.
    """
    point = (ref["p"], ref["q"], ref["r"])
    status = out.get("status")
    if status not in ("attained", "not-found"):
        raise OpFailed(f"unknown status {status!r} at {point}")
    if ref["status"] == "attained" and status != "attained":
        raise OpFailed(f"verdict flipped attained -> {status} at {point}")
    if status == "attained":
        check_attained(out, point, tol)


# ---------------------------------------------------------------- atlas


class AtlasRunner:
    """Runs `carnotreach atlas` at CLI defaults into a temporary directory
    inside the checkout and checks its outputs."""

    def __init__(self, resolution: int, reference_kept: int | None = None):
        self.resolution = resolution
        self.reference_kept = reference_kept
        self._meshes = []

    def __enter__(self):
        WORK_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="atlas-", dir=WORK_DIR))
        # observe the mesh the CLI builds, to count kept samples; no timing
        self._original = boundary_atlas.trim_and_mesh

        def capture(*args, **kwargs):
            mesh = self._original(*args, **kwargs)
            self._meshes.append(mesh)
            return mesh

        capture.__wrapped__ = self._original
        boundary_atlas.trim_and_mesh = capture
        return self

    def __exit__(self, *exc):
        boundary_atlas.trim_and_mesh = self._original
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    def argv(self) -> list[str]:
        return [
            "atlas",
            "--resolution",
            str(self.resolution),
            "--out-obj",
            str(self.dir / "boundary.obj"),
            "--out-csv",
            str(self.dir / "strata.csv"),
        ]

    def run(self, timed=contextlib.nullcontext) -> dict:
        self._meshes.clear()
        argv = self.argv()
        with timed():
            t0 = time.perf_counter()
            out_text = call_cli(argv)
            seconds = time.perf_counter() - t0
        return self.check(out_text, seconds)

    def check(self, out_text: str, seconds: float) -> dict:
        out = strict_json(out_text)
        if len(self._meshes) != 1:
            raise OpFailed(f"atlas built {len(self._meshes)} meshes, expected 1")
        mesh = self._meshes[0]
        kept = sum(1 for s in mesh.samples if s.boundary)
        obj = parse_obj((self.dir / "boundary.obj").read_text())
        if obj["vertices"] != out["vertices"]:
            raise OpFailed(f"OBJ has {obj['vertices']} vertices, JSON says {out['vertices']}")
        if obj["groups"] != out["groups"]:
            raise OpFailed("OBJ face groups differ from the JSON summary")
        if out["prober_failures"] != 0:
            raise OpFailed(f"atlas reported {out['prober_failures']} prober failures")
        if out["samples"] != len(mesh.samples):
            raise OpFailed("JSON sample count differs from the mesh")
        csv_rows = (self.dir / "strata.csv").read_text().count("\n") - 1
        if csv_rows <= 0:
            raise OpFailed("atlas strata CSV is empty")
        if self.reference_kept is not None and kept < self.reference_kept:
            raise OpFailed(f"atlas kept {kept} samples, below the reference {self.reference_kept}")
        return {
            "seconds": seconds,
            "samples": out["samples"],
            "kept": kept,
            "vertices": out["vertices"],
            "faces": sum(out["groups"].values()),
        }


def parse_obj(text: str) -> dict:
    """Parse the OBJ subset the atlas writes; every face index must be valid."""
    n_vertices = 0
    groups: dict[str, int] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            coords = [float(v) for v in parts[1:]]
            if len(coords) != 3 or not all(math.isfinite(c) for c in coords):
                raise OpFailed(f"OBJ line {lineno}: bad vertex {line!r}")
            n_vertices += 1
        elif parts[0] == "g" and len(parts) == 2:
            current = parts[1]
            groups[current] = 0
        elif parts[0] == "f":
            idx = [int(v) for v in parts[1:]]
            if current is None or len(idx) != 3 or len(set(idx)) != 3:
                raise OpFailed(f"OBJ line {lineno}: bad face {line!r}")
            if not all(1 <= i <= n_vertices for i in idx):
                raise OpFailed(f"OBJ line {lineno}: face index out of range 1..{n_vertices}")
            groups[current] += 1
        else:
            raise OpFailed(f"OBJ line {lineno}: unexpected {line!r}")
    return {"vertices": n_vertices, "groups": groups}


# ---------------------------------------------------------------- extremals


def extremals_pass_inputs(seed: int, pass_index: int) -> list[dict]:
    """Random covectors of the periodic triangle regime (h12, h23, h31 > 0),
    whose synthesized words use all three letters, plus a split point.

    The cost of an operation is quadratic in the arc count, so the arc
    count is stratified: the closed-form period predicts it, and covectors
    are drawn until each bin of EXTREMALS_BIN predicted arcs between
    EXTREMALS_ARCS[0] and EXTREMALS_ARCS[1] holds EXTREMALS_PER_BIN."""
    rng = np.random.default_rng([seed, pass_index, 4])
    quota = {b: EXTREMALS_PER_BIN for b in range(EXTREMALS_ARCS[0], EXTREMALS_ARCS[1], EXTREMALS_BIN)}
    items = []
    while len(items) < EXTREMALS_PASS:
        h = rng.uniform(0.1, 1.0, size=3)
        h12, h23, h31 = rng.uniform(0.3, 2.0, size=3)
        cov = adjoint.AdjointCovector.of(h, (h12, -h31, h23))
        period = sum(adjoint.switching_times(adjoint.normalize(cov)))
        arcs = 3.0 * EXTREMALS_HORIZON / period
        b = EXTREMALS_ARCS[0] + int((arcs - EXTREMALS_ARCS[0]) // EXTREMALS_BIN) * EXTREMALS_BIN
        if arcs >= EXTREMALS_ARCS[0] and quota.get(b, 0) > 0:
            quota[b] -= 1
            items.append({"covector": cov, "split": float(rng.uniform())})
    return [items[i] for i in rng.permutation(len(items))]


def extremals_op(item: dict, timed=contextlib.nullcontext) -> Op:
    with timed():
        t0 = time.perf_counter()
        a = adjoint.normalize(item["covector"])
        w, _ = adjoint.synthesize(a, EXTREMALS_HORIZON)
        report = second_order.ag_test(w, a)
        k = 1 + int(item["split"] * (len(w.arcs) - 1))
        left, right = words.Word(w.arcs[:k]), words.Word(w.arcs[k:])
        whole = words.endpoint(words.concat(left, right))
        product = group.multiply(words.endpoint(left), words.endpoint(right))
        section = words.to_section(w)
        direct = words.pqr(section)
        via_endpoint = words.pqr_from_endpoint(words.endpoint(section))
        canonical = words.canonicalize(words.concat(left, right))
        seconds = time.perf_counter() - t0
    check_extremal(w, whole, product, direct, via_endpoint, canonical)
    return Op(seconds, info={"verdict": report.verdict, "arcs": len(w.arcs)})


def check_extremal(w, whole, product, direct, via_endpoint, canonical) -> None:
    gap = max(abs(u - v) for u, v in zip(whole.x + whole.y, product.x + product.y))
    if not gap <= IDENTITY_TOL:
        raise OpFailed(f"endpoint(concat(a, b)) differs from multiply by {gap:.3g}")
    gap = max(abs(u - v) for u, v in zip((direct.p, direct.q, direct.r), (via_endpoint.p, via_endpoint.q, via_endpoint.r)))
    if not gap <= IDENTITY_TOL:
        raise OpFailed(f"pqr(w) differs from pqr_from_endpoint(endpoint(w)) by {gap:.3g}")
    if canonical != w:
        raise OpFailed("canonicalize(concat(a, b)) differs from the synthesized word")


def effective_weights(ops: list) -> list[float]:
    """Each op's stratum share divided by the number of ops of its stratum,
    so a stratum weighs its share whatever the run's count of it."""
    counts: dict = {}
    for o in ops:
        counts[o.info.get("stratum")] = counts.get(o.info.get("stratum"), 0) + 1
    return [o.weight / counts[o.info.get("stratum")] for o in ops]


# ---------------------------------------------------------------- workload classes


def _status_frac(ops, status) -> float | None:
    good = [o for o in ops if not o.failed]
    if not good:
        return None
    weights = effective_weights(good)
    return sum(wt for wt, o in zip(weights, good) if o.info.get("status") == status) / sum(weights)


class Workload:
    """A closed loop with one client, run in passes of fixed composition.

    An untraced run repeats its passes `repeats` times over; each
    operation's latency is the best of its repeats."""

    name = ""
    must_cross: tuple[str, ...] = ()
    repeats = 1

    def __init__(self, seed: int):
        self.seed = seed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def pass_inputs(self, index: int) -> list:
        raise NotImplementedError

    def run_op(self, item, timed):
        """One operation; only the program calls inside `timed()` are timed."""
        raise NotImplementedError

    def properties(self, ops) -> dict:
        return {}

    def report_only(self, ops) -> dict:
        return {}


class Roundtrip(Workload):
    name = "roundtrip"
    must_cross = ("fit", "fit.attained", "member", "pqr", "dice_pqr")
    repeats = 3  # ops of about 35 ms

    def pass_inputs(self, index):
        return roundtrip_pass_inputs(self.seed, index)

    def run_op(self, item, timed):
        return roundtrip_op(item, timed)

    def properties(self, ops):
        kinds = [o.info.get("kind") for o in ops]
        arcs = [o.info.get("arcs") for o in ops if o.info.get("kind") == "word"]
        return {
            "member_argv": f"--starts {ROUNDTRIP_STARTS} --seed <drawn per query>",
            "pass_size": ROUNDTRIP_PASS,
            "dice_share": kinds.count("dice") / len(ops) if ops else None,
            "dice_atoms_max": ROUNDTRIP_ATOMS_MAX,
            "word_lengths": {str(n): arcs.count(n) for n in ROUNDTRIP_WORD_LENGTHS},
        }

    def report_only(self, ops):
        return {"attained_frac": _status_frac(ops, "attained")}


class CubeScan(Workload):
    name = "cube-scan"
    must_cross = ("fit", "fit.attained", "fit.not_found", "member")
    # no repeats: a run holds about 16 ops, and points differ in cost more than repeats do

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = load_cube_reference()
        self.strata = cube_strata(self.reference)

    def pass_inputs(self, index):
        return cube_pass_inputs(self.seed, index, self.strata)

    def run_op(self, item, timed):
        return cube_op(item, self.reference, timed)

    def properties(self, ops):
        ref = self.reference
        n = len(ref)
        flags = [screen_flags((r["p"], r["q"], r["r"])) for r in ref]
        not_found = [r["status"] == "not-found" for r in ref]
        screened = [f["sum_bound"] or f["golden_bound"] for f in flags]
        return {
            "member_argv": "defaults (max_arcs 8, starts 20, seed 0)",
            "pool_size": n,
            "pool_sum_bound_violators": sum(f["sum_bound"] for f in flags) / n,
            "pool_golden_bound_violators": sum(f["golden_bound"] for f in flags) / n,
            "pool_screened": sum(screened) / n,
            "pool_reference_attained": not_found.count(False) / n,
            "pool_reference_not_found": not_found.count(True) / n,
            "pool_not_found_passing_screens": sum(nf and not s for nf, s in zip(not_found, screened)) / n,
            "strata": {key: len(v) for key, v in self.strata.items()},
            "picks_per_pass": CUBE_PICKS,
            "points_queried": len(ops),
            "queried_not_found": sum(1 for o in ops if o.info.get("status") == "not-found"),
        }

    def report_only(self, ops):
        return {"attained_frac": _status_frac(ops, "attained")}


class Atlas(Workload):
    name = "atlas"
    must_cross = ("fit", "fit.attained", "fit.not_found", "prober.attained", "prober.not_found", "atlas")
    repeats = 4  # one operation of about 5 s

    def __init__(self, seed):
        super().__init__(seed)
        ref = json.loads((REFERENCE / "atlas.json").read_text())
        if ref["resolution"] != ATLAS_RESOLUTION:
            raise OpFailed("the atlas reference was recorded at another resolution")
        self.runner = AtlasRunner(ATLAS_RESOLUTION, reference_kept=ref["kept"])

    def __enter__(self):
        self.runner.__enter__()
        return self

    def __exit__(self, *exc):
        return self.runner.__exit__(*exc)

    def pass_inputs(self, index):
        return [None]  # the atlas runs at CLI defaults; the seed does not change it

    def run_op(self, item, timed):
        result = self.runner.run(timed)
        return Op(result["seconds"], info=result)

    def properties(self, ops):
        last = next((o.info for o in reversed(ops) if not o.failed), {})
        return {
            "argv": f"atlas --resolution {ATLAS_RESOLUTION} --out-obj <tmp> --out-csv <tmp>",
            "prober": "CLI defaults: --probe-max-arcs 6 --probe-starts 6 --eps 1e-3 --seed 0, no --threads",
            "resolution": ATLAS_RESOLUTION,
            "samples": last.get("samples"),
            "kept": last.get("kept"),
            "reference_kept": self.runner.reference_kept,
        }

    def report_only(self, ops):
        good = [o for o in ops if not o.failed]
        return {"kept_frac": statistics.fmean(o.info["kept"] / o.info["samples"] for o in good) if good else None}


class Extremals(Workload):
    name = "extremals"
    must_cross = ("pqr", "endpoint", "canonicalize", "multiply", "synthesize", "ag_test")
    repeats = 3  # ops of about 3 ms, over 1500 distinct ones a run

    def pass_inputs(self, index):
        return extremals_pass_inputs(self.seed, index)

    def run_op(self, item, timed):
        return extremals_op(item, timed)

    def properties(self, ops):
        arcs = [o.info["arcs"] for o in ops if not o.failed]
        verdicts = [o.info["verdict"] for o in ops if not o.failed]
        return {
            "covectors": "triangle regime: h ~ U(0.1, 1)^3 then normalized; h12, h23, h31 ~ U(0.3, 2); "
            f"{EXTREMALS_PER_BIN} per bin of {EXTREMALS_BIN} predicted arcs in {EXTREMALS_ARCS[0]}..{EXTREMALS_ARCS[1]}",
            "horizon": EXTREMALS_HORIZON,
            "pass_size": EXTREMALS_PASS,
            "arcs_median": statistics.median(arcs) if arcs else None,
            "not_optimal_share": verdicts.count("not-optimal") / len(verdicts) if verdicts else None,
        }


CLASSES = {c.name: c for c in (Roundtrip, CubeScan, Atlas, Extremals)}
