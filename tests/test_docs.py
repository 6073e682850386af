"""Keep the code blocks in README.md and EXPERIMENTS.md runnable.

CI regenerates documentation drift the cheap way: every fenced ``bash`` block
is parsed and its commands validated against the real CLI/argument parsers
and the real file tree, and every fenced ``python`` block must compile and
only import things that actually exist.  A doc example that rots — a renamed
experiment, a dropped flag, a moved file — fails here before a user hits it.
"""

from __future__ import annotations

import ast
import importlib
import shlex
from pathlib import Path

import pytest

from repro.api.scenario import resolve_token
from repro.cli.main import build_parser
from repro.experiments.registry import REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = ("README.md", "EXPERIMENTS.md")

#: Commands docs may reference without further checking.
KNOWN_COMMANDS = {"pip", "git", "jq", "less"}


def iter_code_blocks(path: Path):
    """(language, text) for every fenced code block in a markdown file."""
    language = None
    lines: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            if language is None:
                language = stripped[3:].strip()
            else:
                yield language, "\n".join(lines)
                language, lines = None, []
        elif language is not None:
            lines.append(line)


def doc_blocks(language: str) -> list:
    blocks = []
    for name in DOC_FILES:
        for block_language, text in iter_code_blocks(REPO_ROOT / name):
            if block_language == language:
                blocks.append(pytest.param(name, text, id=f"{name}:{len(blocks)}"))
    return blocks


# ----------------------------------------------------------------- validators
def _validate_repro_args(argv: list[str], context: str) -> None:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"documented CLI invocation no longer parses: {context}")
    if getattr(args, "command", None) == "run":
        assert args.experiment in REGISTRY, (
            f"documented experiment {args.experiment!r} is not registered "
            f"({context})"
        )
    # The workload-token flags (--spec, --core) accept catalog names,
    # family tokens and "tiny"; validate each through the same resolution
    # path the scenario serializer uses.
    for attr in ("spec", "core"):
        for token in getattr(args, attr, None) or ():
            resolve_token(token)  # raises on unknown tokens/parameters


def _validate_python_invocation(tokens: list[str], context: str) -> None:
    if tokens[:2] == ["-m", "repro.cli"]:
        _validate_repro_args(tokens[2:], context)
        return
    if tokens[:2] == ["-m", "pytest"]:
        for token in tokens[2:]:
            # Only file/directory targets; skip flags and option values.
            if token.startswith("-") or not ("/" in token or token.endswith(".py")):
                continue
            assert (REPO_ROOT / token).exists(), (
                f"documented pytest target {token!r} does not exist ({context})"
            )
        return
    if tokens and tokens[0].endswith(".py"):
        assert (REPO_ROOT / tokens[0]).exists(), (
            f"documented script {tokens[0]!r} does not exist ({context})"
        )


def _validate_bash_line(line: str, context: str) -> None:
    tokens = shlex.split(line)
    # Drop leading environment assignments (PYTHONPATH=src python ...).
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens.pop(0)
    if not tokens:
        return
    command, rest = tokens[0], tokens[1:]
    if command == "repro":
        _validate_repro_args(rest, context)
    elif command == "python":
        _validate_python_invocation(rest, context)
    else:
        assert command in KNOWN_COMMANDS, (
            f"unrecognised documented command {command!r} ({context}); "
            "add it to KNOWN_COMMANDS if intentional"
        )


# ---------------------------------------------------------------------- tests
@pytest.mark.parametrize("doc,block", doc_blocks("bash"))
def test_bash_blocks_reference_real_commands(doc, block):
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            _validate_bash_line(line, context=doc)


@pytest.mark.parametrize("doc,block", doc_blocks("python"))
def test_python_blocks_compile_and_import(doc, block):
    tree = compile(block, f"<{doc}>", "exec", flags=ast.PyCF_ONLY_AST)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{doc}: `from {node.module} import {alias.name}` no "
                    "longer resolves"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                importlib.import_module(alias.name)


def test_docs_mention_every_registered_experiment():
    """`repro list` is the catalog; EXPERIMENTS.md must name its span."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for anchor in ("table1", "figure9b", "repro list", "repro report"):
        assert anchor in text, f"EXPERIMENTS.md no longer documents {anchor!r}"
