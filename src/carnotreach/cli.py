"""Command-line surface.

Subcommands: endpoint, pqr, member, atlas, simulate-adjoint,
second-order, dice, mc-verify.  Structured output is JSON on stdout,
bulk samples are CSV, meshes are OBJ.  Exit codes: 0 success, 1 domain
error (machine-readable JSON on stderr), 2 usage error.  Runs are fully
determined by flags and seeds; environment variables are not consulted.
Only member and atlas run the witness-word solver: mc-verify reports the
Conjecture-Q margins of random dice points and section-word points, each
attained by its own word.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import adjoint, attainability, boundary_atlas, probability, second_order, words
from .words import InvariantViolation, PqrPoint


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    # JSON is UTF-8 (RFC 8259), whatever the locale
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, files=()) -> None:
    """Write each (path, text) of `files`, then `obj` as JSON on stdout; an
    OSError removes the files this call wrote before it propagates."""
    # strict JSON: a non-finite number is an error, not an "Infinity" token;
    # it and a path given twice are raised before any file is written
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InvariantViolation("output-finite", f"output must be finite JSON: {exc}") from None
    if len({os.path.realpath(path) for path, _ in files}) < len(files):
        raise InvariantViolation("output-path", f"each output file needs its own path, got {[p for p, _ in files]}")
    written = []
    try:
        for path, body in files:
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(body)
    except OSError:
        for path in written:
            os.remove(path)
        raise
    sys.stdout.write(text + "\n")


def _triple(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(v) for v in text.split(","))
    except ValueError:  # a part that is not a number
        parts = ()
    if len(parts) != 3:
        raise InvariantViolation("triple", f"expected 3 comma-separated numbers, got {text!r}")
    return parts


def _cmd_endpoint(args) -> int:
    w = words.word_from_dict(_read_json(args.word))
    g = words.endpoint(w)
    _emit({"x": list(g.x), "y": list(g.y)})
    return 0


def _cmd_pqr(args) -> int:
    w = words.word_from_dict(_read_json(args.word))
    point = words.pqr(w)
    _emit({"p": point.p, "q": point.q, "r": point.r})
    return 0


def _cmd_member(args) -> int:
    target = PqrPoint(args.p, args.q, args.r)
    result = attainability.fit(
        target, max_arcs=args.max_arcs, tol=args.tol, seed=args.seed, n_starts=args.starts
    )
    out = result.to_dict()
    out["max_arcs"] = args.max_arcs
    _emit(out)
    return 0


def _cmd_atlas(args) -> int:
    mesh = boundary_atlas.trim_and_mesh(args.resolution)
    _emit(
        {
            "vertices": len(mesh.vertices),
            "groups": {k: len(v) for k, v in mesh.groups.items()},
            "samples": len(mesh.samples),
            # a probe has two verdicts and solver errors propagate, so this key
            # is a constant kept so that the output bytes the benchmark and the
            # goldens read stay the same
            "prober_failures": 0,
            "obj": args.out_obj,
            "csv": args.out_csv,
        },
        [(args.out_obj, boundary_atlas.write_obj(mesh)), (args.out_csv, boundary_atlas.strata_csv(mesh.strata))],
    )
    return 0


def _cmd_simulate_adjoint(args) -> int:
    a = adjoint.AdjointCovector.of(_triple(args.h), _triple(args.skew))
    a = adjoint.normalize(a)
    word, report = adjoint.synthesize(a, args.horizon)
    _emit(
        {
            "word": words.word_to_dict(word),
            "regime": report.kind,
            "casimir": report.casimir,
            "K": report.K,
            "singular_letters": list(report.singular_letters),
        },
        [(args.out_csv, adjoint.switch_events_csv(a, word))] if args.out_csv else (),
    )
    return 0


def _cmd_second_order(args) -> int:
    w = words.word_from_dict(_read_json(args.word))
    a = adjoint.AdjointCovector.of(_triple(args.h), _triple(args.skew))
    report = second_order.ag_test(w, adjoint.normalize(a))
    _emit(
        {
            "verdict": report.verdict,
            "W_dim": int(report.W_basis.shape[1]),
            "W_basis": report.W_basis.T.tolist(),
            "G_restricted": report.G_restricted.tolist(),
        }
    )
    return 0


def _cmd_dice(args) -> int:
    point = probability.dice_pqr(*probability.dice_from_json(_read_json(args.dice)))
    _emit({"p": point.p, "q": point.q, "r": point.r})
    return 0


def _cmd_mc_verify(args) -> int:
    # the dice check first: it validates --atoms-max and --seed before any draw
    dice = probability.random_dice_check(args.n, atoms_max=args.atoms_max, seed=args.seed)
    hidden = probability.random_word_check(args.n, seed=args.seed)
    _emit(
        {"n": args.n, "dice_max_q_margin": dice.max_q_margin, "words_max_q_margin": hidden.max_q_margin},
        [(args.out_csv, probability.checks_csv(dice, hidden))] if args.out_csv else (),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnotreach",
        description="Attainable set of the positive-control system on the rank-3 step-2 Carnot group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("endpoint", help="word JSON -> group element JSON")
    p.add_argument("word", help="path to word JSON, or - for stdin")
    p.set_defaults(func=_cmd_endpoint)

    p = sub.add_parser("pqr", help="word JSON -> section coordinates")
    p.add_argument("word", help="path to word JSON, or - for stdin")
    p.set_defaults(func=_cmd_pqr)

    p = sub.add_parser("member", help="is (p, q, r) attainable?")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--max-arcs", type=int, default=attainability.DEFAULT_MAX_ARCS)
    p.add_argument("--tol", type=float, default=attainability.DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=attainability.DEFAULT_STARTS)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("atlas", help="trimmed boundary mesh (OBJ) + strata dump (CSV)")
    p.add_argument("--resolution", type=int, default=11)
    p.add_argument("--out-obj", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("simulate-adjoint", help="covector -> synthesized word + switch CSV")
    p.add_argument("--h", required=True, help="h1,h2,h3")
    p.add_argument("--skew", required=True, help="h12,h13,h23")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_simulate_adjoint)

    p = sub.add_parser("second-order", help="word + covector -> non-optimality report")
    p.add_argument("--word", required=True, help="path to word JSON, or - for stdin")
    p.add_argument("--h", required=True, help="h1,h2,h3")
    p.add_argument("--skew", required=True, help="h12,h13,h23")
    p.set_defaults(func=_cmd_second_order)

    p = sub.add_parser("dice", help="three distributions JSON -> (p, q, r)")
    p.add_argument("dice", help="path to JSON [[ [value, mass], ... ] x3], or - for stdin")
    p.set_defaults(func=_cmd_dice)

    p = sub.add_parser("mc-verify", help="Conjecture-Q margins of random dice points and section-word points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--atoms-max", type=int, default=4)
    p.add_argument("--out-csv")
    p.set_defaults(func=_cmd_mc_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # InvariantViolation is a ValueError
        name = exc.name if isinstance(exc, InvariantViolation) else type(exc).__name__
        json.dump({"error": name, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
