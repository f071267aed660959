"""Record the reference verdicts the benchmark checks against.

Run from the root of a checkout, at the commit whose verdicts should
become the reference:

    python3 perfbench/reference.py

It writes perfbench/reference/cube_scan.json (the cube-scan point pool
with each point's `member` verdict at CLI defaults) and
perfbench/reference/atlas.json (the atlas kept count at the benchmark's
resolution).  Both files are committed; the benchmark never rewrites them.
The pool is spread over one worker process per CPU this process may use.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _member_verdict(point):
    workloads.import_program()
    t0 = time.perf_counter()
    out = workloads.run_member(point, [])
    seconds = time.perf_counter() - t0
    row = {
        "p": point[0],
        "q": point[1],
        "r": point[2],
        "status": out["status"],
        "starts_used": out["starts_used"],
        "residual": out["residual"],
        "seconds": round(seconds, 3),
    }
    if "witness" in out:
        row["witness"] = out["witness"]
    return row


def record_cube_scan() -> dict:
    points = workloads.cube_pool_points()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        rows = pool.map(_member_verdict, points, chunksize=1)
    return {
        "pool_seed": workloads.CUBE_POOL_SEED,
        "member_argv": "defaults (max_arcs 8, starts 20, seed 0)",
        "points": rows,
    }


def record_atlas() -> dict:
    workloads.import_program()
    with workloads.AtlasRunner(workloads.ATLAS_RESOLUTION) as runner:
        result = runner.run()
    return {
        "resolution": workloads.ATLAS_RESOLUTION,
        "samples": result["samples"],
        "kept": result["kept"],
        "vertices": result["vertices"],
        "faces": result["faces"],
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    out_dir = HERE / "reference"
    (out_dir / "atlas.json").write_text(json.dumps(record_atlas(), indent=1) + "\n")
    (out_dir / "cube_scan.json").write_text(json.dumps(record_cube_scan(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
