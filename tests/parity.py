"""Bit-for-bit parity of the command-line interface between two checkouts.

    python3 tests/parity.py record OUT.json [--work DIR]
    python3 tests/parity.py diff A.json B.json

record imports the package from the src/ of the checkout this file is in and
runs, in one process, every case below through hybridgrid.cli.main:

- simulate, and compare on both axes, on scenarios/toy.json, reference.json
  and stress.json and on the wide-fleet inputs bench/fleet.py writes for
  seed 1;
- validate, a 3-day simulate and a 3-day compare --axis health on each
  distinct document that test_cli.mutate makes by one replace, delete or add
  of a value of test_cli.MUTATION_POOL at any path of a
  test_cli.MUTATED_DOCS document;
- each subcommand's --help, at 80 columns, so a change of CLI text shows.

Per case it writes the exit code, stdout, the last stderr line and the
sha256 of each file the case wrote. Every input and output goes under --work,
which record empties first, so the paths a config echo or a message carries
match between checkouts recorded with the same --work. diff lists the cases
whose records differ and exits 1 if any do. The file name keeps pytest from
collecting it. To record a checkout older than this file, copy it and
tests/test_cli.py into that checkout's tests/ first.
"""

from __future__ import annotations

import os

# One BLAS thread, as bench/run.py pins it, before numpy loads; argparse
# wraps help at COLUMNS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["COLUMNS"] = "80"

import argparse
import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("toy", "reference", "stress")
RUNS = {"simulate": ["simulate"], "compare-priority": ["compare", "--axis", "priority"],
        "compare-health": ["compare", "--axis", "health"]}
MUTANT_RUNS = {"validate": ["validate"], "simulate": ["simulate", "--days", "3"],
               "compare-health": ["compare", "--axis", "health", "--days", "3"]}
SUBCOMMANDS = ("validate", "simulate", "compare", "forecast")


def mutants() -> dict[str, str]:
    """Each distinct mutated text, named by its first document, operation,
    dotted path and value."""
    import test_cli

    texts = {}
    for name, doc in test_cli.MUTATED_DOCS.items():
        for at in test_cli._paths(doc):
            for op in ("replace", "delete", "add") if at else ("add",):
                for value in test_cli.MUTATION_POOL if op != "delete" else [None]:
                    text = test_cli.mutate(doc, at, op, value)
                    where = test_cli.dotted(at) or "<root>"
                    texts.setdefault(text, f"{name} {op} {where}" +
                                     ("" if op == "delete" else f" {json.dumps(value)}"))
    return {name: text for text, name in texts.items()}


def run_case(main, argv: list[str], out: Path) -> dict:
    """One CLI call's exit code, stdout, last stderr line and artifact hashes."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exit after --help or a usage error
            code = exc.code
        except Exception as exc:  # an outcome to compare, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    lines = stderr.getvalue().splitlines()
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stdout": stdout.getvalue(), "stderr_last": lines[-1] if lines else "",
            "artifacts": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}


def record(out_json: Path, work: Path) -> int:
    os.chdir(ROOT)  # test_cli reads its documents from scenarios/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import fleet

    import hybridgrid
    from hybridgrid.cli import main

    if Path(hybridgrid.__file__).resolve().parent != ROOT / "src" / "hybridgrid":
        sys.exit(f"error: imported {hybridgrid.__file__}, not this checkout's package")
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    docs = {}
    for name in SCENARIOS:
        docs[name] = inputs / f"{name}.json"
        shutil.copyfile(ROOT / "scenarios" / f"{name}.json", docs[name])
    docs["wide-fleet"] = fleet.generate(1, inputs / "fleet").scenario_path

    cases = {}
    for name, path in docs.items():
        for run, argv in RUNS.items():
            cases[f"{name} {run}"] = run_case(main, [argv[0], str(path), "--out", str(out),
                                                     *argv[1:]], out)
    path = inputs / "mutant.json"
    for name, text in mutants().items():
        path.write_text(text)
        for run, argv in MUTANT_RUNS.items():
            extra = [] if run == "validate" else ["--out", str(out)]
            cases[f"{name} | {run}"] = run_case(main, [argv[0], str(path), *extra, *argv[1:]],
                                                out)
    for name in SUBCOMMANDS:
        cases[f"help {name}"] = run_case(main, [name, "--help"], out)
    out_json.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} cases to {out_json}")
    return 0


def diff(a_json: Path, b_json: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (a_json, b_json))
    differ = [name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
    for name in differ:
        print(f"differs: {name}")
        for label, side in (("a", a), ("b", b)):
            got = side.get(name)
            print(f"  {label}: " + ("missing" if got is None else
                                    f"exit {got['exit']}; {got['stderr_last'] or got['stdout']!r}"))
    print(f"{len(differ)} of {len(a.keys() | b.keys())} cases differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run every case and write their outcomes")
    p.add_argument("out", type=Path)
    p.add_argument("--work", type=Path, help="where inputs and outputs are written; emptied first",
                   default=Path(tempfile.gettempdir()) / "hybridgrid-parity")
    p = sub.add_parser("diff", help="list the cases whose outcomes differ")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out.resolve(), args.work.resolve())
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
