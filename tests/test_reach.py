"""The reach map's own contract (``tests/reach.py``), on a synthetic package.

A tiny module under ``tmp_path`` stands in for ``src/`` and one
``python -c`` command for the contract, so every check runs in a second
or two: definitions are matched by their first line (decorated
functions, properties and nested closures included), stubs are skipped,
and ``--check`` fails on an unreached unlisted function and on a stale
allowlist entry.
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


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A synthetic ``src/`` tree, its one-command contract and an allowlist."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(MODULE)
    allowlist = tmp_path / "reach.json"
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "SRC", src)
    monkeypatch.setattr(reach, "ALLOWLIST", allowlist)
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
    allowlist.write_text(json.dumps({"pkg/mod.py::never": "kept: error path"}))
    assert reach.main(["--check"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failures) == 1
    assert "pkg/mod.py::Box.unreached_method" in failures[0]


def test_check_passes_when_every_unreached_function_is_listed(project, capsys):
    _, allowlist = project
    allowlist.write_text(json.dumps({name: "kept" for name in UNREACHED}))
    assert reach.main(["--check"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "stale, why",
    [("pkg/mod.py::gone", "no longer exists"), ("pkg/mod.py::reached", "reaches it")],
)
def test_check_fails_on_a_stale_allowlist_entry(project, capsys, stale, why):
    _, allowlist = project
    entries = {name: "kept" for name in UNREACHED}
    entries[stale] = "kept"
    allowlist.write_text(json.dumps(entries))
    assert reach.main(["--check"]) == 1
    failures = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failures) == 1
    assert stale in failures[0] and why in failures[0]
