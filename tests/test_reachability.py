"""Every public name in the package is reached by a program, not only by tests.

A function, class or method of `src/somnoscore` must appear as a whole word
somewhere in `src/`, `scripts/` or `benchmark/` (outside `benchmark/tests/`)
other than on a line that defines that name. Names only tests reach go, unless
listed below with the reason a test needs them. Likewise every `ModelConfig`
field must be read by the package, so no setting is stored that nothing obeys,
and every CLI option must be a config field or be read by `cli`, so no flag is
offered that nothing obeys. README's "Configuration" list names exactly the
`ModelConfig` fields, with their count; its "Checkpoints" paragraph names the
current format version and the refusal of the one before; and every
`somnoscore` command in README's bash blocks and in `scripts/*.sh` uses only
its subcommand's options.
"""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

from somnoscore import cli
from somnoscore.cli import RunConfig
from somnoscore.model import CHECKPOINT_VERSION, ModelConfig

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


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def option_dests(parser: argparse.ArgumentParser) -> set[str]:
    """The dest of every option and positional of every subcommand, help aside."""
    return {a.dest for p in subcommands(parser).values() for a in p._actions
            if not isinstance(a, argparse._HelpAction)}


def unread_options(dests: set[str], lines: list[str], config_fields: set[str]) -> set[str]:
    """The dests that are no config field and are never read as `args.<d>` or
    `getattr(args, "<d>"...)`; an assignment is not a read."""
    return {d for d in dests - config_fields
            if not any(re.search(rf'\bargs\.{d}\b(?!\s*=[^=])|getattr\(args, "{d}"', line)
                       for line in lines)}


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
    lines = ["index = args.fold", "wanted = args.subjects.split(',')",
             'if getattr(args, "config", None):', "args.tapper", "args.power_mode = 1"]
    assert option_dests(parser) == {"fold", "subjects", "config", "seed", "tap", "power_mode"}
    assert unread_options(option_dests(parser), lines, {"seed"}) == {"tap", "power_mode"}


def config_list_faults(readme: str, names: list[str]) -> set[str]:
    """What README's "Configuration" section gets wrong about the fields
    `names`: the count its "Its N fields" states, and the backquoted names of
    its first list."""
    section = readme.split("\n## Configuration\n", 1)[1].split("\n#", 1)[0]
    count = int(re.search(r"\bIts (\d+) fields\b", section).group(1))
    listed = re.findall(r"`(\w+)`", re.search(r"^- .*?(?=\n\n)", section, re.M | re.S)[0])
    faults = {f"missing {n}" for n in set(names) - set(listed)}
    faults |= {f"unknown {n}" for n in set(listed) - set(names)}
    if count != len(names):
        faults.add(f"states {count} fields, not {len(names)}")
    return faults


def test_readme_config_list_names_every_model_config_field():
    readme = (ROOT / "README.md").read_text()
    assert config_list_faults(readme, [f.name for f in fields(ModelConfig)]) == set()


def test_config_list_faults_flags_a_missing_name_and_a_wrong_count():
    readme = ("intro\n## Configuration\n\nIts 3 fields:\n\n- the net: `f1`,\n"
              "  `f2`;\n- the rest: `dtype`.\n\nprose `f3`\n### Cost\n")
    assert config_list_faults(readme, ["f1", "f2", "dtype"]) == set()
    assert config_list_faults(readme, ["f1", "f2", "dtype", "f3"]) == {
        "missing f3", "states 3 fields, not 4"}


def test_readme_checkpoints_paragraph_names_the_format_version():
    paragraph = (ROOT / "README.md").read_text().split("\nCheckpoints (`.somn`", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    v = CHECKPOINT_VERSION
    assert f"format version {v})" in paragraph
    assert f"`format version {v - 1} != {v}`" in paragraph


def command_lines(text: str) -> list[str]:
    """`text`'s shell lines, each continuation joined on; a comment line
    counts as its text after the `#`."""
    lines, held = [], ""
    for line in text.splitlines():
        held += re.sub(r"^\s*#", "", line)
        if held.endswith("\\"):
            held = held[:-1]
        else:
            lines.append(held)
            held = ""
    return lines + [held] if held else lines


def stale_flags(lines: list[str], parser: argparse.ArgumentParser) -> set[str]:
    """Each `somnoscore <subcommand>` of `lines` that `parser` lacks, and each
    `<subcommand> --option` whose option is not one of that subcommand's."""
    faults = set()
    for line in lines:
        for command, args in re.findall(r"\bsomnoscore\s+([\w-]+)(.*)", line):
            if command not in subcommands(parser):
                faults.add(f"somnoscore {command}")
                continue
            known = {s for a in subcommands(parser)[command]._actions for s in a.option_strings}
            faults |= {f"{command} {flag}" for flag in re.findall(r"(?<![\w-])--[\w-]+", args)
                       if flag not in known}
    return faults


def test_documented_commands_use_real_options():
    texts = re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    texts += [path.read_text() for path in sorted((ROOT / "scripts").glob("*.sh"))]
    lines = [line for text in texts for line in command_lines(text)]
    assert sum("somnoscore crossval" in line for line in lines) >= 4
    assert stale_flags(lines, cli.build_parser()) == set()


def test_stale_flags_flags_an_option_on_a_commented_continuation():
    script = ('somnoscore crossval --data-dir D \\\n  --seed 1 --folds 0,2\n'
              '# somnoscore crossval --output-dir "$OUT-morlet" \\\n'
              '#   --seed 1 --first-layer-mode fixed_morlet\n'
              'somnoscore train --fold 0  # one fold\n')
    assert command_lines(script)[0] == "somnoscore crossval --data-dir D   --seed 1 --folds 0,2"
    assert stale_flags(command_lines(script), cli.build_parser()) == {
        "crossval --first-layer-mode", "somnoscore train"}
