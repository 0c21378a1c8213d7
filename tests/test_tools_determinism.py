"""tools/lint_determinism.py: the simulator core stays seeded-only."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "lint_determinism", REPO_ROOT / "tools" / "lint_determinism.py")
lint_determinism = importlib.util.module_from_spec(_SPEC)
assert _SPEC.loader is not None
_SPEC.loader.exec_module(lint_determinism)


def test_repo_is_clean():
    assert lint_determinism.lint_paths() == []


def test_main_exit_zero(capsys):
    assert lint_determinism.main() == 0
    assert "determinism lint: clean" in capsys.readouterr().out


def _lint_source(tmp_path, source):
    path = tmp_path / "probe.py"
    path.write_text(source, encoding="utf-8")
    return lint_determinism.lint_file(path)


def test_catches_wall_clock(tmp_path):
    findings = _lint_source(tmp_path, """\
import time

def tick():
    return time.monotonic()
""")
    assert len(findings) == 1
    assert "time.monotonic" in findings[0]


def test_catches_from_time_import(tmp_path):
    findings = _lint_source(tmp_path, """\
from time import perf_counter

def tick():
    return perf_counter()
""")
    assert len(findings) == 1
    assert "perf_counter" in findings[0]


def test_catches_module_level_rng(tmp_path):
    findings = _lint_source(tmp_path, """\
import random

def pick(items):
    return random.choice(items)
""")
    assert len(findings) == 1
    assert "random.choice" in findings[0]


def test_allows_seeded_rng(tmp_path):
    findings = _lint_source(tmp_path, """\
import random

def make_rng(seed):
    return random.Random(seed)
""")
    assert findings == []


def test_deadline_guards_stay_allowlisted():
    """The interp deadline guard is the only clock site the scoped
    packages may contain."""
    allow = lint_determinism.DEADLINE_GUARD_ALLOWLIST
    assert allow == {
        ("src/repro/cpu/interp.py", "_check_deadline_now"),
    }
    interp = REPO_ROOT / "src" / "repro" / "cpu" / "interp.py"
    source = interp.read_text(encoding="utf-8")
    for _, guard in sorted(allow):
        assert f"def {guard}" in source


def test_scope_covers_static_layers():
    """The analysis/ and lang/ packages are inside the determinism
    scope: certifier reports are diffed byte-for-byte against a
    committed golden, so ambient clocks/RNG there are as fatal as in
    the simulator core."""
    scoped = {p.relative_to(REPO_ROOT).as_posix()
              for p in lint_determinism.SCOPED_DIRS}
    assert "src/repro/analysis" in scoped
    assert "src/repro/lang" in scoped


def test_violation_in_scoped_tree_is_caught(tmp_path):
    """A wall-clock read dropped anywhere under a scoped package —
    e.g. a hypothetical analysis/symbolic helper — is rejected."""
    nested = tmp_path / "analysis" / "symbolic"
    nested.mkdir(parents=True)
    (nested / "bad.py").write_text("""\
import time
import random

def stamp(report):
    return (time.time(), random.random())
""", encoding="utf-8")
    findings = lint_determinism.lint_paths([tmp_path / "analysis"])
    assert len(findings) == 2
    assert any("time.time" in f for f in findings)
    assert any("random.random" in f for f in findings)


def test_cli_reports_findings(tmp_path, capsys, monkeypatch):
    path = tmp_path / "probe.py"
    path.write_text("import time\n\ndef f():\n    return time.time()\n",
                    encoding="utf-8")
    monkeypatch.setattr(lint_determinism, "SCOPED_DIRS", (tmp_path,))
    assert lint_determinism.main() == 1
    captured = capsys.readouterr()
    assert "time.time" in captured.out
    assert "1 finding(s)" in captured.err


def test_catches_collector_switch(tmp_path):
    findings = _lint_source(tmp_path, """\
import gc
from gc import freeze as pin

def build(items):
    gc.disable()
    pin()
    gc.set_threshold(0)
    gc.collect()
    return gc.isenabled()
""")
    assert len(findings) == 3
    assert "gc.disable" in findings[0]
    assert "gc.freeze" in findings[1]
    assert "gc.set_threshold" in findings[2]


def test_collector_check_covers_all_of_the_package(tmp_path, monkeypatch):
    """Outside the deterministic packages only the collector check
    runs: a clock read there is fine, a collector switch is not."""
    nested = tmp_path / "perf"
    nested.mkdir()
    (nested / "bad.py").write_text("""\
import gc
import time

def timed(work):
    gc.enable()
    return time.perf_counter()
""", encoding="utf-8")
    monkeypatch.setattr(lint_determinism, "SCOPED_DIRS", ())
    monkeypatch.setattr(lint_determinism, "SOURCE_ROOT", tmp_path)
    findings = lint_determinism.lint_paths()
    assert len(findings) == 1
    assert "gc.enable" in findings[0]


def test_collector_switches_stay_allowlisted():
    """The corpus build is the only function in the package that
    switches the collector."""
    allow = lint_determinism.COLLECTOR_ALLOWLIST
    assert allow == {
        ("src/repro/fingerprint/corpus.py", "generate_corpus"),
    }
    for relpath, function in sorted(allow):
        source = (REPO_ROOT / relpath).read_text(encoding="utf-8")
        assert f"def {function}" in source
        assert "gc.disable()" in source
    assert lint_determinism.SOURCE_ROOT == REPO_ROOT / "src" / "repro"
