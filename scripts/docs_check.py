#!/usr/bin/env python
"""Documentation lint: dead links and stale code references.

Checks (run by ``make docs-check``, which ``make test`` includes):

1. every relative markdown link in ``docs/*.md`` and ``README.md``
   resolves to an existing file (``http(s)``/``mailto`` and pure
   ``#anchor`` links are skipped; ``#fragment`` suffixes are stripped
   before resolving);
2. every ``bench_*.py`` mentioned anywhere in the checked documents
   exists under ``benchmarks/``;
3. every ``bench_*.py`` under ``benchmarks/`` is mentioned by name in
   ``docs/benchmarks.md`` — the index can't silently go stale;
4. every backticked CamelCase identifier names something importable:
   a registered synopsis operator or a public ``repro`` class
   (introspected live, so a renamed operator breaks the build, not
   the reader);
5. every ``repro`` CLI invocation inside code spans/fences uses a
   subcommand and ``--flags`` that the real argparse tree accepts;
6. every ``repro_*`` metric name mentioned in the docs exists in the
   process metrics registry (after importing every metric-registering
   module);
7. every backticked dotted ``repro.…`` path resolves: its longest
   importable module prefix is imported and the rest is looked up with
   ``getattr`` (a call suffix such as ``(..., arity=k)`` is ignored), so
   a deleted or renamed function left in the prose fails the lint.

Exit status: 0 when clean, 1 with a listing of problems otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

#: [text](target) — target captured up to the closing paren.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BENCH_RE = re.compile(r"bench_\w+\.py")
#: `CamelCase` tokens inside backticks (possibly dotted/called).
CAMEL_RE = re.compile(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)(?:\(\))?`")
METRIC_RE = re.compile(r"\brepro_[a-z0-9_]+")
FENCE_RE = re.compile(r"^(```|~~~)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
#: A dotted ``repro.…`` path at the start of a code span.
DOTTED_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")

#: Backticked CamelCase that is legitimately not a repro identifier.
CAMEL_ALLOWLIST = {
    "CamelCase",
    "ContextVar",
    "GitHub",
    "KeyError",
    "MacBook",
    "NumPy",
    "PathLike",
    "PyPI",
    "RuntimeError",
    "StopIteration",
    "TypeError",
    "ValueError",
}

#: Shell tokens that end a ``repro ...`` invocation inside one line.
_SHELL_STOP = {"|", "||", "&&", ";", ">", ">>", "<", "2>", "2>&1", "#"}


def checked_documents() -> list[Path]:
    return sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]


def check_links(doc: Path) -> list[str]:
    problems = []
    text = doc.read_text()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # same-page anchor
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            line = text.count("\n", 0, match.start()) + 1
            problems.append(
                f"{doc.relative_to(REPO)}:{line}: dead link -> {target}"
            )
    return problems


def check_bench_mentions(docs: list[Path]) -> list[str]:
    problems = []
    bench_dir = REPO / "benchmarks"
    real = {p.name for p in bench_dir.glob("bench_*.py")}
    # bench_-named tooling outside benchmarks/ (e.g. scripts/bench_compare.py)
    # is a valid reference too.
    known = real | {p.name for p in (REPO / "scripts").glob("bench_*.py")}
    for doc in docs:
        text = doc.read_text()
        for match in BENCH_RE.finditer(text):
            if match.group(0) not in known:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{doc.relative_to(REPO)}:{line}: "
                    f"references missing benchmark {match.group(0)}"
                )
    index = (REPO / "docs" / "benchmarks.md").read_text()
    for name in sorted(real - set(BENCH_RE.findall(index))):
        problems.append(f"docs/benchmarks.md: benchmark not indexed: {name}")
    return problems


# ----------------------------------------------------------------------
# Live-code introspection (operators, CLI tree, metric catalog)
# ----------------------------------------------------------------------
def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so registration side effects run:
    operators land in the synopsis registry, metrics in REGISTRY."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        importlib.import_module(info.name)


def known_identifiers() -> set[str]:
    """Registered operator names plus every public class defined under
    ``repro`` — the universe a backticked CamelCase token may cite."""
    from repro.engine import registry

    names = set(registry.names())
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in vars(module).items():
            if inspect.isclass(value) and not attr.startswith("_"):
                names.add(attr)
    return names


def check_identifiers(docs: list[Path]) -> list[str]:
    known = known_identifiers() | CAMEL_ALLOWLIST
    problems = []
    for doc in docs:
        text = doc.read_text()
        for match in CAMEL_RE.finditer(text):
            token = match.group(1)
            if token not in known:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{doc.relative_to(REPO)}:{line}: `{token}` is not a "
                    f"registered operator or public repro class"
                )
    return problems


def cli_surface() -> tuple[dict[str, bool], dict[str, dict[str, bool]]]:
    """The real argparse tree: ``{flag: takes_value}`` for global flags
    and per-subcommand flags."""
    from repro.cli import build_parser

    def flags_of(parser: argparse.ArgumentParser) -> dict[str, bool]:
        table: dict[str, bool] = {}
        for action in parser._actions:
            for opt in action.option_strings:
                table[opt] = action.nargs != 0
        return table

    parser = build_parser()
    subcommands: dict[str, dict[str, bool]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                subcommands[name] = flags_of(sub)
    return flags_of(parser), subcommands


def _code_lines(text: str) -> list[tuple[int, str]]:
    """(line-number, code-text) for fenced-block lines and inline code
    spans — the places a CLI invocation can legitimately appear."""
    out = []
    in_fence = False
    pending: tuple[int, str] | None = None  # shell `\` line continuation
    for i, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            pending = None
            continue
        if in_fence:
            if pending is not None:
                start, acc = pending
                line = acc + " " + line.strip()
                i = start
                pending = None
            if line.rstrip().endswith("\\"):
                pending = (i, line.rstrip()[:-1].rstrip())
                continue
            out.append((i, line))
        else:
            for span in CODE_SPAN_RE.findall(line):
                out.append((i, span))
    return out


def _check_invocation(
    tokens: list[str],
    global_flags: dict[str, bool],
    subcommands: dict[str, dict[str, bool]],
) -> list[str]:
    """Validate one token stream that starts right after ``repro``."""
    problems = []
    sub_flags: dict[str, bool] | None = None
    seen_sub: str | None = None
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token in _SHELL_STOP:
            break
        if token.startswith("--"):
            flag = token.split("=", 1)[0]
            table = {**global_flags, **(sub_flags or {})}
            if flag not in table:
                where = f"subcommand {seen_sub}" if seen_sub else "repro"
                problems.append(f"unknown flag {flag} for {where}")
                i += 1
                continue
            if table[flag] and "=" not in token:
                i += 1  # skip the flag's value token
        elif seen_sub is None:
            if token not in subcommands:
                problems.append(f"unknown subcommand {token!r}")
                break
            seen_sub = token
            sub_flags = subcommands[token]
        # bare tokens after the subcommand are positionals/values: fine
        i += 1
    return problems


def check_cli_invocations(docs: list[Path]) -> list[str]:
    global_flags, subcommands = cli_surface()
    problems = []
    for doc in docs:
        for line_no, code in _code_lines(doc.read_text()):
            tokens = code.split()
            for j, token in enumerate(tokens):
                if token != "repro":
                    continue
                # `python -m repro ...` or a bare `repro ...` invocation;
                # dotted module paths (repro.serve) don't split to "repro".
                if j > 0 and tokens[j - 1] not in ("-m",) and not tokens[
                    j - 1
                ].endswith(("$", "|", ";", "&&", "time")):
                    continue
                rest = tokens[j + 1 :]
                looks_like_invocation = rest and (
                    rest[0].startswith("--")
                    or rest[0] in subcommands
                    or any(t.startswith("--") for t in rest)
                )
                if not looks_like_invocation:
                    continue  # prose like `repro` the package
                for problem in _check_invocation(rest, global_flags, subcommands):
                    problems.append(
                        f"{doc.relative_to(REPO)}:{line_no}: {problem}"
                    )
                break  # one invocation per code snippet is enough
    return problems


def check_metric_names(docs: list[Path]) -> list[str]:
    from repro.observability.metrics import REGISTRY

    real = set(REGISTRY.names())
    problems = []
    for doc in docs:
        text = doc.read_text()
        for match in METRIC_RE.finditer(text):
            name = match.group(0)
            if text[match.end() : match.end() + 1] == "*":
                # A `repro_foo_*` family reference: valid while any
                # registered metric carries the prefix.
                if any(r.startswith(name) for r in real):
                    continue
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            if name not in real and base not in real:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{doc.relative_to(REPO)}:{line}: metric {name} is not "
                    f"in the metrics registry"
                )
    return problems


def resolves(path: str) -> bool:
    """Whether a dotted ``repro.…`` path names a live module or
    attribute: import the longest importable prefix, ``getattr`` the
    rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_paths(docs: list[Path]) -> list[str]:
    problems = []
    for doc in docs:
        text = doc.read_text()
        for match in DOTTED_RE.finditer(text):
            if not resolves(match.group(1)):
                line = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"{doc.relative_to(REPO)}:{line}: `{match.group(1)}` does "
                    f"not resolve to a repro module or attribute"
                )
    return problems


def main() -> int:
    docs = checked_documents()
    problems: list[str] = []
    for doc in docs:
        problems.extend(check_links(doc))
    problems.extend(check_bench_mentions(docs))
    _import_all_repro_modules()
    problems.extend(check_identifiers(docs))
    problems.extend(check_cli_invocations(docs))
    problems.extend(check_metric_names(docs))
    problems.extend(check_dotted_paths(docs))
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs-check: {len(docs)} documents clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
