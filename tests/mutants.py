"""Mutation score of the tier-1 tests: how much of the package they pin.

    python3 tests/mutants.py [--changed REV] [--seed N --count N] [--work DIR]

A site is a node of a src/ module's tree, indexed by its place in ast.walk
order, that one of these operators changes:

- relational: each comparison operator swapped for its boundary or negated
  twin (< and <=, > and >=, == and !=, is and is not, in and not in);
- arithmetic: + and -, * and /, // to /, % to //, ** to *, in expressions
  and augmented assignments;
- logical connector: and and or;
- unary insertion: not before the test of an if, while, conditional
  expression or assert;
- literal: each int or float literal plus 1 and minus 1.

A mutant is one site and one replacement. The node's source span is replaced
by its mutated form (ast.unparse, parenthesized), so the rest of the file
keeps its bytes. Nodes inside f-strings are skipped: Python 3.11 does not
give them source positions.

--changed REV takes the mutants whose node spans a line changed since REV
(git diff against the working tree); --count N adds N mutants drawn from the
rest by random.Random(--seed); with neither, every mutant runs. Each mutant
runs tier-1 with -x on a fresh copy of the checkout's files (git ls-files,
as they are on disk), with a timeout of 3x the clean copy's run.

MUTANTS.json, at the checkout's root, holds the settings, the score (killed
over mutants not marked equivalent) and per mutant its id, file, line,
operator, source text before and after, result (the first failing test id,
"timeout", or "survived") and seconds. A survivor is classified by hand: an
equivalent one gets an "equivalent" reason, which later runs keep while the
mutant's id and texts match; any other needs a test that kills it. The file
name keeps pytest from collecting this script.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "-rfE"]
RELATIONAL = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
              ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
              ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
              ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult}
CONNECTOR = {ast.And: ast.Or, ast.Or: ast.And}


def variants(node: ast.AST):
    """(operator, variant, the node whose span is replaced, its mutated copy)
    for each mutant of the node."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in RELATIONAL:
                new = copy.deepcopy(node)
                new.ops[k] = RELATIONAL[type(op)]()
                yield "relational", str(k), node, new
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
        new = copy.deepcopy(node)
        new.op = ARITHMETIC[type(node.op)]()
        yield "arithmetic", "0", node, new
    elif isinstance(node, ast.BoolOp):
        yield "connector", "0", node, ast.BoolOp(CONNECTOR[type(node.op)](), node.values)
    elif isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
        yield "unary-insertion", "0", node.test, ast.UnaryOp(ast.Not(), node.test)
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
          and abs(node.value) < 1e300):
        for step in (1, -1):
            yield "literal", f"{step:+d}", node, ast.Constant(node.value + step)


def sites(path: Path) -> list[dict]:
    """Every mutant of one module, in ast.walk order of its sites."""
    source = path.read_bytes()
    tree = ast.parse(source)
    skip = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    rel, out = path.relative_to(ROOT).as_posix(), []
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in skip:
            continue
        for operator, variant, at, new in variants(node):
            lo = starts[at.lineno - 1] + at.col_offset
            hi = starts[at.end_lineno - 1] + at.end_col_offset
            text = ast.unparse(new)
            if not isinstance(at, ast.stmt):
                text = f"({text})"
            out.append({"id": f"{rel}:{index}:{operator}:{variant}", "file": rel,
                        "line": at.lineno, "lines": [at.lineno, at.end_lineno],
                        "operator": operator, "from": source[lo:hi].decode(), "to": text,
                        "source": source[:lo] + text.encode() + source[hi:]})
    return out


def changed_lines(rev: str) -> dict[str, set[int]]:
    """Per file under src/, the lines of the working tree changed since rev."""
    diff = subprocess.run(["git", "diff", "--unified=0", rev, "--", "src/"], cwd=ROOT,
                          check=True, capture_output=True, text=True).stdout
    lines, name = {}, None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            name = row[6:] if row.startswith("+++ b/") else None
        elif row.startswith("@@") and name:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", row).groups()
            first = int(start)
            lines.setdefault(name, set()).update(range(first, first + int(count or 1)))
    return lines


def fresh_copy(work: Path) -> Path:
    """The checkout's files as they are on disk, without git's or pytest's state."""
    files = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout.split()
    dest = Path(tempfile.mkdtemp(dir=work))
    for name in files:
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def tier1(work: Path, timeout: float, mutant: dict | None = None) -> tuple[str, float]:
    """Run tier-1 with -x on a fresh copy, with the mutant's file replaced:
    the first failing test id, "timeout" or "survived", and the seconds taken."""
    dest = fresh_copy(work)
    try:
        if mutant:
            (dest / mutant["file"]).write_bytes(mutant["source"])
        began = time.perf_counter()
        try:
            env = {**os.environ, "PYTHONPATH": str(dest / "src")}
            run = subprocess.run([sys.executable, *TIER1], cwd=dest, env=env, capture_output=True,
                                 text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - began
        seconds = time.perf_counter() - began
        if run.returncode == 0:
            return "survived", seconds
        failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
        return (failed[0] if failed else f"exit {run.returncode}"), seconds
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def score(mutants: list[dict]) -> dict:
    live = [m for m in mutants if "equivalent" not in m]
    killed = sum(m["result"] != "survived" for m in live)
    return {"mutants": len(mutants), "equivalent": len(mutants) - len(live), "killed": killed,
            "survived": len(live) - killed, "score": round(killed / len(live), 4) if live else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--changed", metavar="REV", help="the mutants on lines changed since REV")
    parser.add_argument("--count", type=int, default=0, help="this many more mutants, drawn")
    parser.add_argument("--seed", type=int, default=0, help="the draw's seed")
    parser.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()),
                        help="where the fresh copies are made")
    args = parser.parse_args(argv)

    every = [m for path in sorted((ROOT / "src").rglob("*.py")) for m in sites(path)]
    chosen = every
    if args.changed or args.count:
        lines = changed_lines(args.changed) if args.changed else {}
        chosen = [m for m in every
                  if set(range(m["lines"][0], m["lines"][1] + 1)) & lines.get(m["file"], set())]
        rest = [m for m in every if m["id"] not in {c["id"] for c in chosen}]
        chosen += random.Random(args.seed).sample(rest, min(args.count, len(rest)))

    args.work.mkdir(parents=True, exist_ok=True)
    clean, clean_s = tier1(args.work, None)
    if clean != "survived":
        sys.exit(f"error: the clean copy fails tier-1 ({clean})")
    print(f"{len(chosen)} of {len(every)} mutants; clean run {clean_s:.0f} s", flush=True)
    out = ROOT / "MUTANTS.json"
    reasons = {(m["id"], m["from"], m["to"]): m["equivalent"]
               for m in (json.loads(out.read_text())["mutants"] if out.exists() else [])
               if "equivalent" in m}
    mutants = []
    for n, m in enumerate(chosen, 1):
        compile(m["source"], m["file"], "exec")  # a splice that breaks the syntax stops here
        result, seconds = tier1(args.work, 3 * clean_s, m)
        entry = {**{k: m[k] for k in ("id", "file", "line", "operator", "from", "to")},
                 "result": result, "seconds": round(seconds, 1)}
        if result == "survived" and (m["id"], m["from"], m["to"]) in reasons:
            entry["equivalent"] = reasons[m["id"], m["from"], m["to"]]
        mutants.append(entry)
        print(f"[{n}/{len(chosen)}] {m['id']} {m['from']!r} -> {m['to']!r}: {result} "
              f"({seconds:.0f} s)", flush=True)

    settings = {"changed": args.changed, "count": args.count, "seed": args.seed,
                "sites": len(every), "clean_s": round(clean_s, 1), "timeout_s": round(3 * clean_s)}
    report = {"settings": settings, "score": score(mutants), "mutants": mutants}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report["score"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
