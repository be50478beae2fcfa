"""Hash every artifact file the README's command-line examples write.

Runs every ``reebflow ...`` line of the README's "Command line" block, plus
``classify --csv data.csv``, ``sigma --variant sharp``, ``classify`` on
the 983,041-node grid ``16384,60`` (its grid-wide passes span many blocks
of nodes; it writes JSON and SVG, no CSV), ``linearize`` of
``doubling_osc`` under ``halve`` (the global basin case), on the default
grid and on ``2048,20`` (40,961 nodes in two blocks, where the witness
check reads f(x/2) from f(x) across the block boundary), ``linearize`` of
``koenigs_demo`` under ``square`` on ``1024,40`` (40,961 nodes in two
blocks, whose orbits are walked in lockstep over 12 sweeps) and with its
explicit shift ``--shift-expr`` (the series path, which sums k along the
orbits), and ``classify --flow
flow.json --lambda 1.5`` on ``4096,60`` (a time-scaled realized flow, built
and read back over eight blocks of nodes below c1), in-process and each
into its own output directory.  They run in one temporary
directory that also holds the inputs the examples name: ``data.csv``
(bounded_osc(2) on 64 nodes per octave over 40 octaves, computed with the
``math`` module, not with the package) and ``flow.json`` (a realized
doubling_osc flow on the window ``c0 = 0.3``, ``c1 = 0.6`` rather than the
default 0.25, 0.5, so a ``config`` that echoed a default in place of the
flow's own window would show).
Prints one line per file an example writes (JSON, CSV and SVG alike),
``<sha256>  <command>/<file>``, in file-name order; a command that exits
non-zero prints ``exit <code>  <command>`` instead.

The README is read from this checkout and the package from ``--src``
(default: this checkout's ``src``), so comparing two checkouts' artifacts
byte for byte is one command:

    diff <(python tools/readme_artifacts.py --src OTHER/src) <(python tools/readme_artifacts.py)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA = (
    "reebflow classify   --csv data.csv --out out/",
    "reebflow sigma      --builtin doubling_osc --variant sharp --out out/",
    "reebflow classify   --builtin bounded_osc --grid 16384,60 --out out/",
    "reebflow linearize  --builtin doubling_osc --homeo halve --lambda 2 --out out/",
    "reebflow linearize  --builtin doubling_osc --homeo halve --lambda 2 --grid 2048,20 --out out/",
    "reebflow linearize  --builtin koenigs_demo --homeo square --lambda 2 --grid 1024,40 --out out/",
    "reebflow linearize  --builtin koenigs_demo --homeo square --lambda 2 "
    "--shift-expr '2*x/(1+x) - x**2/(1+x**2)' --out out/",
    "reebflow classify   --flow flow.json --lambda 1.5 --grid 4096,60 --out out/",
)


def examples(readme: Path = ROOT / "README.md") -> list[list[str]]:
    """The argv of every README command-line example, then the extra runs."""
    text = readme.read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("reebflow ")] + list(EXTRA)
    return [shlex.split(ln)[1:] for ln in lines]


def label(argv: list[str]) -> str:
    """The example's command line without ``reebflow`` and its ``--out DIR``."""
    out = argv.index("--out")
    return " ".join(argv[:out] + argv[out + 2 :])


def write_inputs(workdir: Path) -> None:
    K, octaves = 64, 40
    rows = ["x,f"]
    for i in range(K * octaves + 1):
        x = math.ldexp(2.0 ** (-(i % K) / K), -(i // K))
        u = -math.log(x)
        rows.append(f"{x!r},{u + 2.0 * math.sin(u)!r}")
    (workdir / "data.csv").write_text("\n".join(rows) + "\n")
    flow = {"kind": "realized", "c0": 0.3, "c1": 0.6, "f": {"builtin": "doubling_osc", "params": []}}
    (workdir / "flow.json").write_text(json.dumps(flow, sort_keys=True) + "\n")


def artifact_lines(main) -> list[str]:
    """Run every example through the CLI entry point ``main``; one line per file written."""
    out_lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the examples name their inputs by relative path
        try:
            write_inputs(Path(tmp))
            for i, argv in enumerate(examples()):
                run_dir = f"run{i:02d}"
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv + ["--out", run_dir])  # the last --out wins
                if code != 0:
                    out_lines.append(f"exit {code}  {label(argv)}")
                    continue
                for path in sorted(Path(run_dir).iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    out_lines.append(f"{digest}  {label(argv)}/{path.name}")
        finally:
            os.chdir(cwd)
    return out_lines


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the reebflow package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from reebflow.cli import main

    print("\n".join(artifact_lines(main)))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
