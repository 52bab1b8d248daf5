"""The docs stay honest: links resolve and documented flags exist.

Runs the same checks CI's docs-check step runs
(``scripts/check_docs.py``), plus unit tests of the checker itself so a
silently broken checker cannot wave broken docs through.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def test_repo_docs_are_clean(capsys):
    assert check_docs.main() == 0
    assert "docs ok" in capsys.readouterr().out


def test_docs_cover_readme_and_docs_dir():
    names = {p.name for p in check_docs.doc_files()}
    assert "README.md" in names
    assert "EXPERIMENTS.md" in names
    assert "observability.md" in names
    assert "architecture.md" in names


def test_checker_flags_broken_link(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [missing](does/not/exist.md) and [ok](#anchor)\n")
    problems = check_docs.check_links(doc)
    assert len(problems) == 1
    assert "does/not/exist.md" in problems[0]


def test_checker_accepts_urls_and_existing_targets(tmp_path):
    (tmp_path / "other.md").write_text("x\n")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[a](https://ui.perfetto.dev) [b](other.md) [c](other.md#sec)\n"
    )
    assert check_docs.check_links(doc) == []


def test_checker_flags_phantom_runner_flag(tmp_path):
    vocab = check_docs.tool_vocabulary()
    presets = check_docs.runner_presets()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "run `python -m repro.experiments.runner fig8 --no-such-flag`\n"
    )
    problems = check_docs.check_commands(doc, vocab, presets)
    assert len(problems) == 1
    assert "--no-such-flag" in problems[0]


def test_checker_flags_unknown_preset(tmp_path):
    vocab = check_docs.tool_vocabulary()
    presets = check_docs.runner_presets()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "run `python -m repro.experiments.runner fig8 --preset 9z`\n"
    )
    problems = check_docs.check_commands(doc, vocab, presets)
    assert any("unknown runner preset '9z'" in p for p in problems)


def test_real_flags_accepted(tmp_path):
    vocab = check_docs.tool_vocabulary()
    presets = check_docs.runner_presets()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`python -m repro.experiments.runner fig8 --preset 100k "
        "--metrics out.json --trace t.json --workers 4`\n"
        "`python benchmarks/perf/ladder.py --rung worm-1m --smoke --out s.json`\n"
        "`python -m repro.obs.trace --validate t.json`\n"
    )
    assert check_docs.check_commands(doc, vocab, presets) == []
    # The perf vocabulary is read off the scripts that exist.
    assert "benchmarks/perf/ladder.py" in vocab
    assert "benchmarks/perf/perf_common.py" not in vocab


def test_checker_flags_missing_files(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`python benchmarks/perf/fig5_lookup.py` wrote `BENCH_fig5.json`; see"
        " `scripts/no_such.py`.  `benchmarks/perf/ladder.py` writes"
        " `bench-out/BENCH_scaling.json` for `scripts/compare_bench.py`.\n"
    )
    problems = check_docs.check_files(doc)
    assert [p.split("no such file ")[1] for p in problems] == [
        "'benchmarks/perf/fig5_lookup.py'", "'BENCH_fig5.json'", "'scripts/no_such.py'"
    ]
