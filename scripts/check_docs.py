#!/usr/bin/env python
"""Docs sanity checker: links resolve, documented commands and files exist.

Run from the repository root (CI's ``docs-check`` step does)::

    python scripts/check_docs.py

Three classes of drift are caught in ``README.md``, ``EXPERIMENTS.md``
and ``docs/*.md``:

* **Broken relative links** — every ``[text](target)`` whose target is
  not an URL or a bare anchor must resolve to a file or directory in
  the repository (anchors on existing files are accepted; anchor
  contents are not verified).
* **Phantom CLI flags** — every ``--flag`` token on a documented
  command line that invokes ``repro.experiments.runner``,
  ``repro.obs.trace``, ``repro.invariants`` (the stress harness), or
  one of the ``benchmarks/perf`` scripts that exist must appear in that
  tool's ``--help``, and every ``--preset NAME`` for the runner must
  name a real preset.
* **Phantom files** — every ``benchmarks/perf/X.py``, ``scripts/X.py``
  or ``BENCH_X.json`` (a record at the repository root) the docs name
  must exist.

Docs describing removed scripts, records or flags fail CI instead of
lying to the reader.

Exit status 0 when clean; 1 with one problem per line on stderr.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import sys
from pathlib import Path
from typing import Dict, List, Set

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
PERF_DIR = REPO_ROOT / "benchmarks" / "perf"
sys.path.insert(0, str(PERF_DIR))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[a-zA-Z][a-zA-Z0-9-]*")
PRESET_RE = re.compile(r"--preset[= ]([A-Za-z0-9|]+)")
PATH_RE = re.compile(r"(?:benchmarks/perf|scripts)/\w+\.py|BENCH_\w+\.json")


def _rel(path: Path) -> str:
    """``path`` relative to the repo root when possible (for messages)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def doc_files() -> List[Path]:
    """The markdown set the checker covers."""
    files = [REPO_ROOT / "README.md", REPO_ROOT / "EXPERIMENTS.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_files(path: Path) -> List[str]:
    """Perf scripts, scripts and ``BENCH_*.json`` records named in
    ``path`` that do not exist."""
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for name in PATH_RE.findall(line):
            if not (REPO_ROOT / name).exists():
                problems.append(f"{_rel(path)}:{lineno}: no such file {name!r}")
    return problems


def check_links(path: Path) -> List[str]:
    """Relative links in ``path`` that do not resolve."""
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                problems.append(
                    f"{_rel(path)}:{lineno}: "
                    f"broken link {target!r}"
                )
    return problems


def _help_flags(main, prog: str) -> Set[str]:
    """The ``--flag`` vocabulary of one CLI entry point."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            main(["--help"])
        except SystemExit:
            pass
    flags = set(FLAG_RE.findall(buffer.getvalue()))
    if not flags:
        raise RuntimeError(f"could not capture --help for {prog}")
    return flags


def _load_bench(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tool_vocabulary() -> Dict[str, Set[str]]:
    """Command-substring -> accepted ``--flag`` set, from live ``--help``."""
    from repro.experiments import runner
    from repro.invariants import harness
    from repro.obs import trace

    vocab = {
        "repro.experiments.runner": _help_flags(runner.main, "runner"),
        "repro.obs.trace": _help_flags(trace.main, "trace"),
        "repro.invariants": _help_flags(harness.main, "invariants"),
    }
    for path in sorted(PERF_DIR.glob("*.py")):
        main = getattr(_load_bench(path), "main", None)
        if main is not None:  # perf_common is a library, not a CLI
            vocab[f"benchmarks/perf/{path.name}"] = _help_flags(main, path.stem)
    return vocab


def runner_presets() -> Set[str]:
    from repro.experiments import runner

    names: Set[str] = set()
    for table in runner.PRESETS.values():
        names.update(table)
    return names


def check_commands(path: Path, vocab: Dict[str, Set[str]],
                   presets: Set[str]) -> List[str]:
    """Documented command lines using flags their tool does not have."""
    problems = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for tool, flags in vocab.items():
            if tool not in line:
                continue
            for flag in FLAG_RE.findall(line):
                if flag not in flags:
                    problems.append(
                        f"{_rel(path)}:{lineno}: "
                        f"{tool} has no flag {flag!r}"
                    )
            if tool == "repro.experiments.runner":
                for match in PRESET_RE.finditer(line):
                    for name in match.group(1).split("|"):
                        if name not in presets:
                            problems.append(
                                f"{_rel(path)}:{lineno}: "
                                f"unknown runner preset {name!r}"
                            )
    return problems


def main() -> int:
    """Check every covered doc; print problems; 0 = clean."""
    vocab = tool_vocabulary()
    presets = runner_presets()
    problems: List[str] = []
    for path in doc_files():
        problems.extend(check_links(path))
        problems.extend(check_commands(path, vocab, presets))
        problems.extend(check_files(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"docs ok: {len(doc_files())} files checked")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
