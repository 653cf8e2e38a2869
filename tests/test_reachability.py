"""Every public name in the package is reached by a program, not only by tests.

A function, class or method of `src/somnoscore` must appear as a whole word
somewhere in `src/`, `scripts/` or `benchmark/` (outside `benchmark/tests/`)
other than on a line that defines that name. Names only tests reach go, unless
listed below with the reason a test needs them. Likewise every `ModelConfig`
field must be read by the package, so no setting is stored that nothing obeys,
and every CLI option must be a config field or be read by `cli`, so no flag is
offered that nothing obeys.
"""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

from somnoscore import cli
from somnoscore.cli import RunConfig
from somnoscore.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "somnoscore"
PROGRAM_DIRS = ("src", "scripts", "benchmark")

TEST_ONLY = {
    "finite_diff_check": "the finite-difference gradient oracle",
    "shape_trace": "the acceptance test's check of every layer's output shape",
}


def defined_names() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.add(node.name)
    return names


def program_lines() -> list[str]:
    lines = []
    for top in PROGRAM_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".sh") or "tests" in path.relative_to(ROOT).parts:
                continue
            lines += path.read_text().splitlines()
    return lines


def unreached(names: set[str], lines: list[str]) -> set[str]:
    found = set()
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(async\s+def|def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            found.add(name)
    return found


def test_every_name_is_reached_by_a_program():
    assert unreached(defined_names(), program_lines()) == set(TEST_ONLY)


def test_unreached_detects_a_name_used_only_on_its_def_line():
    lines = ["def used(): pass", "used()", "def orphan(): pass", "class Orphan: pass"]
    assert unreached({"used", "orphan", "Orphan"}, lines) == {"orphan", "Orphan"}


def unread_fields(names: list[str], lines: list[str]) -> set[str]:
    """The names never read as `config.<f>`, `cfg.<f>` or `self.<f>`; an
    assignment to one is not a read."""
    return {name for name in names
            if not any(re.search(rf"\b(config|cfg|self)\.{name}\b(?!\s*=[^=])", line)
                       for line in lines)}


def test_every_model_config_field_is_read():
    lines = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in path.read_text().splitlines()]
    assert unread_fields([f.name for f in fields(ModelConfig)], lines) == set()


def test_unread_fields_detects_a_field_only_declared_or_assigned():
    lines = ["    seed: int = 0", "self.seed = 3", "cfg.seeds", "x = config.dtype == 1",
             "params.config.patience"]
    assert unread_fields(["seed", "dtype", "patience"], lines) == {"seed"}


def option_dests(parser: argparse.ArgumentParser) -> set[str]:
    """The dest of every option and positional of every subcommand, help aside."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for p in subparsers.choices.values() for a in p._actions
            if not isinstance(a, argparse._HelpAction)}


def unread_options(dests: set[str], lines: list[str], config_fields: set[str]) -> set[str]:
    """The dests that are no config field and are never read as `args.<d>`,
    `getattr(args, "<d>"...)` or `"<d>" in args`; an assignment is not a read."""
    return {d for d in dests - config_fields
            if not any(re.search(rf'\bargs\.{d}\b(?!\s*=[^=])|getattr\(args, "{d}"|"{d}" in args\b',
                                 line) for line in lines)}


def test_every_cli_option_is_read():
    lines = (PACKAGE / "cli.py").read_text().splitlines()
    config_fields = {f.name for f in fields(RunConfig)} | {f.name for f in fields(ModelConfig)}
    assert unread_options(option_dests(cli.build_parser()), lines, config_fields) == set()


def test_unread_options_detects_an_option_nothing_reads():
    parser = argparse.ArgumentParser()
    p = parser.add_subparsers().add_parser("analyze")
    for flag in ("--fold", "--subjects", "--config", "--seed", "--tap"):
        p.add_argument(flag)
    p.add_argument("--power-mode", dest="power_mode")
    lines = ['if "fold" in args:', "wanted = args.subjects.split(',')",
             'if getattr(args, "config", None):', "args.tapper", "args.power_mode = 1"]
    assert option_dests(parser) == {"fold", "subjects", "config", "seed", "tap", "power_mode"}
    assert unread_options(option_dests(parser), lines, {"seed"}) == {"tap", "power_mode"}
