"""The reach map: which ``src/`` functions does the project's contract run?

Every non-stub function definition under ``src/`` should have a reader
outside its own test: a benchmark workload, a CLI command, an example or
a bench.  This script profiles those readers -- :data:`CONTRACT`, the one
list of what counts as a reader -- and sorts each definition by whether
the contract reached it.

How: each command runs as a subprocess with a generated
``sitecustomize`` module first on ``PYTHONPATH``.  It enables ``cProfile``
at interpreter start and, at exit (or on SIGTERM, which is how a
multiprocessing pool ends its workers), writes the ``(file, first line)``
of every code object it saw into a dump directory.  Child processes
inherit ``PYTHONPATH``, so oceanbench's repetitions and ``repro sweep``'s
spawned workers are covered too.  A definition matches a code object by
its first line: the first decorator's line for a decorated function,
which is what ``co_firstlineno`` reports.  Stubs (docstring, ``pass``,
``...`` or ``raise NotImplementedError`` only) are skipped.

``tests/data/reach.json`` maps each function the contract does not reach
to its verdict: why it is kept.  An entry must leave the list once its
function is reached or gone, so no verdict outlives its reason.

Usage::

    python tests/reach.py           # contract and tier-1: print the map
    python tests/reach.py --check   # contract only: compare with reach.json

``--check`` exits 1 on a function that is neither reached nor listed,
and on a listed entry that no longer exists or is now reached.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWLIST = ROOT / "tests" / "data" / "reach.json"
# Benches rewrite their wall-clock result files; the map restores them.
BENCH_RESULTS = ROOT / "benchmarks" / "results"

_PY = sys.executable
_REPRO = [_PY, "-m", "repro"]
_OCEANBENCH = [_PY, "benchmarks/oceanbench/run.py", "--seed", "0", "--seconds", "2"]

# What counts as a reader.  ``{tmp}`` is replaced by a scratch directory.
CONTRACT: list[list[str]] = [
    *(
        [*_OCEANBENCH, "--workload", workload]
        for workload in ("commit_stream", "read_zipf", "heartbeat_soak", "chaos_failover")
    ),
    [*_OCEANBENCH, "--workload", "chaos_failover", "--trace", "1"],
    [*_REPRO, "demo"],
    [*_REPRO, "topology"],
    [*_REPRO, "reliability"],
    [*_REPRO, "costmodel"],
    [*_REPRO, "costmodel", "--fit", "--updates-per-round", "2"],
    [*_REPRO, "costmodel", "--fit", "--json"],
    [*_REPRO, "telemetry"],
    [*_REPRO, "telemetry", "--scenario", "read-path", "--json"],
    [*_REPRO, "flightrec"],
    [*_REPRO, "flightrec", "--json", "--category", "pbft",
     "--export-perfetto", "{tmp}/update-path.perfetto.json"],
    [*_REPRO, "chaos", "--seed", "0"],
    [*_REPRO, "chaos", "--list"],
    [*_REPRO, "chaos", "--seed", "0", "--scenario", "pbft-silent", "--json"],
    [*_REPRO, "rings"],
    [*_REPRO, "slo"],
    [*_REPRO, "slo", "--threshold", "update:p99:1000000"],
    [*_REPRO, "health"],
    [*_REPRO, "health", "--crash", "2"],
    [*_REPRO, "sweep"],
    *(
        [_PY, f"examples/{name}.py"]
        for name in (
            "conflict_resolution",
            "digital_library",
            "groupware_email",
            "nomadic_data",
            "quickstart",
            "sensor_streams",
            "shared_documents",
        )
    ),
    [_PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
     "--benchmark-disable", "--ignore=benchmarks/oceanbench"],
]  # fmt: skip

# The second run set of the plain map: tier-1.
TIER1: list[list[str]] = [[_PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]]

_SITECUSTOMIZE = '''\
import atexit, cProfile, os, signal

_DUMP_DIR = {dump_dir!r}
_SRC = {src!r}
_profile = cProfile.Profile()


def _dump():
    _profile.disable()
    keys = set()
    for entry in _profile.getstats():
        code = entry.code
        if not isinstance(code, str):
            path = os.path.abspath(code.co_filename)
            if path.startswith(_SRC):
                keys.add("%s:%d" % (path[len(_SRC):], code.co_firstlineno))
    if not keys:
        return  # e.g. multiprocessing's resource tracker, which outlives the run
    name = "%d-%s.txt" % (os.getpid(), os.urandom(4).hex())
    with open(os.path.join(_DUMP_DIR, name), "w") as out:
        out.write("\\n".join(sorted(keys)))


def _on_term(signum, frame):
    _dump()
    os._exit(128 + signum)


atexit.register(_dump)
signal.signal(signal.SIGTERM, _on_term)
_profile.enable()
'''


class Definition(NamedTuple):
    """One non-stub function definition under ``src/``."""

    name: str  # "repro/pkg/mod.py::Class.method" -- the allowlist key
    key: str  # "repro/pkg/mod.py:<first line>" -- the profile key
    lines: int  # own lines, nested definitions excluded

    @property
    def file(self) -> str:
        return self.name.split("::", 1)[0]


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring (or a bare `...`)
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _nested(node: ast.AST):
    """Functions and classes inside ``node``, not counting their own insides."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*_DEFS, ast.ClassDef)):
            yield child
        else:
            yield from _nested(child)


def definitions(src: Path) -> list[Definition]:
    """Every non-stub function definition under ``src``, in file order."""
    found: list[Definition] = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        seen: dict[str, int] = defaultdict(int)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in _nested(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                    continue
                qualname = f"{prefix}{child.name}"
                if not _is_stub(child):
                    seen[qualname] += 1
                    # A property's setter shares its getter's name.
                    name = qualname if seen[qualname] == 1 else f"{qualname}@{seen[qualname]}"
                    first = _first_line(child)
                    lines = child.end_lineno - first + 1 - sum(
                        n.end_lineno - _first_line(n) + 1 for n in _nested(child)
                    )
                    found.append(Definition(f"{rel}::{name}", f"{rel}:{first}", lines))
                visit(child, f"{qualname}.<locals>.")

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def profile(commands: list[list[str]], src: Path, cwd: Path) -> set[str]:
    """Run each command under the profiling ``sitecustomize``; return reached keys."""
    reached: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        site = Path(scratch, "site")
        dumps = Path(scratch, "dumps")
        site.mkdir()
        dumps.mkdir()
        prefix = str(src.resolve()) + os.sep
        (site / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(dump_dir=str(dumps), src=prefix)
        )
        path = os.pathsep.join([str(site), str(src.resolve())])
        env = dict(os.environ, PYTHONPATH=path)
        for command in commands:
            argv = [arg.replace("{tmp}", scratch) for arg in command]
            print("reach: running " + " ".join(argv[1:]), file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
                raise SystemExit(f"reach: {' '.join(argv[1:])} exited with {done.returncode}")
        for dump in dumps.iterdir():
            reached.update(filter(None, dump.read_text().split("\n")))
    return reached


def _profile_keeping_results(commands: list[list[str]]) -> set[str]:
    saved = {p: p.read_bytes() for p in BENCH_RESULTS.glob("*.json")}
    try:
        return profile(commands, SRC, ROOT)
    finally:
        for path in BENCH_RESULTS.glob("*.json"):
            if path not in saved:
                path.unlink()
        for path, data in saved.items():
            path.write_bytes(data)


def check(defs: list[Definition], reached: set[str], allowlist: dict[str, str]) -> list[str]:
    """Problems: unreached and unlisted, listed but gone, listed but reached."""
    by_name = {d.name: d for d in defs}
    problems = [
        f"{d.name} ({d.lines} lines) is not reached by the contract and has no verdict "
        "in reach.json: give it a reader, delete it, or list it with its reason"
        for d in defs
        if d.key not in reached and d.name not in allowlist
    ]
    for name in allowlist:
        if name not in by_name:
            problems.append(f"{name} is listed in reach.json but no longer exists: drop it")
        elif by_name[name].key in reached:
            problems.append(f"{name} is listed in reach.json but the contract reaches it: drop it")
    return problems


def _total(defs: list[Definition]) -> str:
    return f"{len(defs)} / {sum(d.lines for d in defs)}"


def print_map(defs: list[Definition], contract: set[str], tier1: set[str] | None) -> None:
    """Per file: functions / own lines in each class.

    With ``tier1`` the classes are both / tests-only / neither /
    contract-only; without it, reached / unreached.
    """
    if tier1 is None:
        classes = {"reached": lambda d: d.key in contract, "unreached": lambda d: d.key not in contract}
    else:
        classes = {
            "both": lambda d: d.key in contract and d.key in tier1,
            "tests-only": lambda d: d.key not in contract and d.key in tier1,
            "neither": lambda d: d.key not in contract and d.key not in tier1,
            "contract-only": lambda d: d.key in contract and d.key not in tier1,
        }
    by_file: dict[str, list[Definition]] = defaultdict(list)
    for d in defs:
        by_file[d.file].append(d)
    width = max(len(f) for f in by_file)
    print(f"{'file':<{width}}  " + "  ".join(f"{c:>13}" for c in classes))
    for file, file_defs in by_file.items():
        cells = [_total([d for d in file_defs if test(d)]) for test in classes.values()]
        print(f"{file:<{width}}  " + "  ".join(f"{c:>13}" for c in cells))
    cells = [_total([d for d in defs if test(d)]) for test in classes.values()]
    print(f"{'total (functions / lines)':<{width}}  " + "  ".join(f"{c:>13}" for c in cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="profile the contract only and compare with reach.json"
    )
    args = parser.parse_args(argv)
    defs = definitions(SRC)
    contract = _profile_keeping_results(CONTRACT)
    allowlist = json.loads(ALLOWLIST.read_text())
    if args.check:
        print_map(defs, contract, None)
        problems = check(defs, contract, allowlist)
        for problem in problems:
            print(f"FAIL: {problem}")
        unreached = [d for d in defs if d.key not in contract]
        print(f"{len(unreached)} unreached functions, all listed: {not problems}")
        return 1 if problems else 0
    tier1 = _profile_keeping_results(TIER1)
    print_map(defs, contract, tier1)
    print()
    for d in defs:
        if d.key not in contract:
            where = "tests-only" if d.key in tier1 else "neither"
            verdict = allowlist.get(d.name, "NO VERDICT")
            print(f"{where:<10} {d.lines:>4}  {d.name}  -- {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
