"""The reach map's own contract (``tests/reach.py``), on a synthetic package.

A tiny module under ``tmp_path`` stands in for ``src/`` and one
``python -c`` command for the contract, so every check runs in a second
or two: definitions are matched by their first line (decorated
functions, properties and nested closures included), stubs are skipped,
and ``--check`` fails on an unreached unlisted function, on a stale
allowlist entry, and on a verdict that names no class or, for a (c)
verdict, no open item of a synthetic ``ROADMAP.md``.
"""

import json
import sys

import pytest

import reach

MODULE = '''\
import functools


def reached():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


class Box:
    @property
    def size(self):
        return 3

    @size.setter
    def size(self, value):
        self._size = value

    def unreached_method(self):
        return 4


def outer():
    def closure():
        return 5

    return closure()


def never():
    return 6


def stub_doc():
    """Only a docstring."""


def stub_pass():
    pass


def stub_ellipsis():
    ...


def stub_raise():
    raise NotImplementedError("abstract")
'''

DRIVER = (
    "import pkg.mod as m; m.reached(); m.decorated(); b = m.Box(); b.size; "
    "b.size = 1; m.outer()"
)
UNREACHED = {"pkg/mod.py::Box.unreached_method", "pkg/mod.py::never"}

ROADMAP = """\
# ROADMAP

1. **An open item.**
   1. not an item: indented
2. **Another open item.** Item 3 is closed and named in prose only.

14. **A third open item.**
"""


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A synthetic ``src/`` tree, its one-command contract and an allowlist."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(MODULE)
    allowlist = tmp_path / "reach.json"
    (tmp_path / "ROADMAP.md").write_text(ROADMAP)
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "SRC", src)
    monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
    monkeypatch.setattr(reach, "ROADMAP", tmp_path / "ROADMAP.md")
    monkeypatch.setattr(reach, "BENCH_RESULTS", tmp_path / "results")
    monkeypatch.setattr(reach, "CONTRACT", [[sys.executable, "-c", DRIVER]])
    return src, allowlist


def test_definitions_skip_stubs_and_name_nested_ones(project):
    src, _ = project
    defs = {d.name: d for d in reach.definitions(src)}
    assert set(defs) == {
        "pkg/mod.py::reached",
        "pkg/mod.py::decorated",
        "pkg/mod.py::Box.size",
        "pkg/mod.py::Box.size@2",
        "pkg/mod.py::Box.unreached_method",
        "pkg/mod.py::outer",
        "pkg/mod.py::outer.<locals>.closure",
        "pkg/mod.py::never",
    }
    lines = MODULE.splitlines()
    # A decorated definition is keyed by its first decorator's line.
    first = int(defs["pkg/mod.py::decorated"].key.rsplit(":", 1)[1])
    assert lines[first - 1].startswith("@functools.lru_cache")
    # The closure's lines are its own, not its enclosing function's.
    assert defs["pkg/mod.py::outer"].lines == 5 - 2
    assert defs["pkg/mod.py::outer.<locals>.closure"].lines == 2


def test_profile_reaches_decorated_properties_and_closures(project):
    src, _ = project
    reached = reach.profile(reach.CONTRACT, src, src.parent)
    unreached = {d.name for d in reach.definitions(src) if d.key not in reached}
    assert unreached == UNREACHED


def test_check_fails_on_an_unreached_unlisted_function(project, capsys):
    _, allowlist = project
    allowlist.write_text(json.dumps({"pkg/mod.py::never": "(d) error path"}))
    assert reach.main(["--check"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failures) == 1
    assert "pkg/mod.py::Box.unreached_method" in failures[0]


def test_check_passes_when_every_unreached_function_is_listed(project, capsys):
    _, allowlist = project
    allowlist.write_text(json.dumps({name: "(d) kept" for name in UNREACHED}))
    assert reach.main(["--check"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "stale, why",
    [("pkg/mod.py::gone", "no longer exists"), ("pkg/mod.py::reached", "reaches it")],
)
def test_check_fails_on_a_stale_allowlist_entry(project, capsys, stale, why):
    _, allowlist = project
    entries = {name: "(d) kept" for name in UNREACHED}
    entries[stale] = "(d) kept"
    allowlist.write_text(json.dumps(entries))
    assert reach.main(["--check"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failures) == 1
    assert stale in failures[0] and why in failures[0]


def test_open_items_are_the_numbered_bold_lines():
    assert reach.open_items(ROADMAP) == {1, 2, 14}


@pytest.mark.parametrize(
    "verdict, why",
    [
        ("kept: error path", "neither (c) nor (d)"),
        ("(x) kept", "neither (c) nor (d)"),
        ("(c) §4.1 a paper feature with no reader", "names no ROADMAP item"),
        ("(c) §4.1 a paper feature; ROADMAP item 3", "item 3, which is not an open item"),
        ("(c) a paper feature; ROADMAP item 2, then ROADMAP item 13", "item 13, which is not an open item"),
    ],
)
def test_check_fails_on_a_verdict_that_breaks_the_rule(project, capsys, verdict, why):
    _, allowlist = project
    entries = {name: "(d) kept" for name in UNREACHED}
    entries["pkg/mod.py::never"] = verdict
    allowlist.write_text(json.dumps(entries))
    assert reach.main(["--check"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failures) == 1
    assert "pkg/mod.py::never" in failures[0] and why in failures[0]


@pytest.mark.parametrize(
    "verdict",
    ["(c) §4.1 a paper feature; ROADMAP item 2", "(c) a feature; ROADMAP item 14's second slice"],
)
def test_check_passes_a_c_verdict_that_names_an_open_item(project, capsys, verdict):
    _, allowlist = project
    entries = {name: "(d) kept" for name in UNREACHED}
    entries["pkg/mod.py::never"] = verdict
    allowlist.write_text(json.dumps(entries))
    assert reach.main(["--check"]) == 0
    assert "FAIL" not in capsys.readouterr().out
