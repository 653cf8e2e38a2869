"""Every public name in the package is reached by a program, not only by tests.

A function, class or method of `src/somnoscore` must appear as a whole word
somewhere in `src/`, `scripts/` or `benchmark/` (outside `benchmark/tests/`)
other than on a line that defines that name. Names only tests reach go, unless
listed below with the reason a test needs them. One level below, in the
parsed program code: every field, property and method of a package class
(and every attribute its `__init__` sets) is read as `.name`, every
module-level constant is read, and every defaulted parameter is passed by
some call; these checks go by name, so a member that shares its name with
one read elsewhere (`shape`, `copy`) counts as read. Likewise every `ModelConfig`
and `RunConfig` field must be read by the package, so no setting is stored
that nothing obeys, and every CLI option must be a config field or be read by
`cli`, so no flag is offered that nothing obeys. README's "Configuration" list names exactly the
`ModelConfig` fields, with their count; its "Checkpoints" paragraph names the
current format version and the refusal of the one before; and every
`somnoscore` command in README's bash blocks and in `scripts/*.sh` uses only
its subcommand's options.
"""

import argparse
import ast
import re
import textwrap
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
}
UNREAD_MEMBERS = {
    "EvalRecord.wall_clock": "written to result.json with the other fields, through vars()",
}
UNPASSED_DEFAULTS = {
    "cli.main(argv)": "the console script calls main() to parse sys.argv; tests pass argv",
}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def defined_names() -> set[str]:
    return {node.name for tree in package_modules().values() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not is_dunder(node.name)}


def program_files(suffixes: tuple[str, ...]) -> list[Path]:
    return [path for top in PROGRAM_DIRS for path in sorted((ROOT / top).rglob("*"))
            if path.suffix in suffixes and "tests" not in path.relative_to(ROOT).parts]


def program_lines() -> list[str]:
    return [line for path in program_files((".py", ".sh")) for line in path.read_text().splitlines()]


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


def package_lines() -> list[str]:
    return [line for path in sorted(PACKAGE.glob("*.py"))
            for line in path.read_text().splitlines()]


def test_every_model_config_field_is_read():
    assert unread_fields([f.name for f in fields(ModelConfig)], package_lines()) == set()


def test_every_run_config_field_is_read():
    assert unread_fields([f.name for f in fields(RunConfig)], package_lines()) == set()


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


def program_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in program_files((".py",))]


def attribute_reads(trees: list[ast.Module]) -> set[str]:
    """Every attribute name `trees` read: `x.name` as a value, or `getattr(x, "name"...)`."""
    reads = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def class_members(trees: list[ast.Module]) -> dict[str, str]:
    """`Class.member` -> member for every field, property and method of every
    class in `trees`, and every attribute its `__init__` sets on self; dunders aside."""
    members = {}
    for cls in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
                if node.name == "__init__":
                    names += [a.attr for a in ast.walk(node)
                              if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                              and isinstance(a.value, ast.Name) and a.value.id == "self"]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            members |= {f"{cls.name}.{name}": name for name in names if not is_dunder(name)}
    return members


def unread_names(names: dict[str, str], reads: set[str]) -> set[str]:
    """The qualified names in `names` whose plain name is not in `reads`."""
    return {qualified for qualified, name in names.items() if name not in reads}


def test_every_class_member_is_read_by_a_program():
    members = class_members(list(package_modules().values()))
    assert unread_names(members, attribute_reads(program_trees())) == set(UNREAD_MEMBERS)


def test_unread_members_detects_a_field_property_and_attribute_nothing_reads():
    package = ast.parse(textwrap.dedent("""
        class Cache:
            x: int
            probs: int
            kind = "a"
            def __init__(self, g):
                self.g, self.h = g, 1
            @property
            def shape(self):
                return self.g
            def tile(self):
                pass
            def __array__(self):
                pass
    """))
    program = ast.parse('c.x\ngetattr(c, "kind")\nc.tile()\nc.probs = 3\nc.h.shape2')
    assert unread_names(class_members([package]), attribute_reads([program])) == {
        "Cache.probs", "Cache.g", "Cache.shape"}


def module_constants(modules: dict[str, ast.Module]) -> dict[str, str]:
    """`module.NAME` -> NAME for every name a module assigns at its top level; dunders aside."""
    return {f"{module}.{name.id}": name.id for module, tree in modules.items()
            for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for name in ast.walk(target) if isinstance(name, ast.Name) and not is_dunder(name.id)}


def name_reads(trees: list[ast.Module]) -> set[str]:
    """Every name `trees` read, bare or as an attribute (`module.NAME`)."""
    bare = {n.id for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bare | attribute_reads(trees)


def test_every_module_constant_is_read_by_a_program():
    constants = module_constants(package_modules())
    assert unread_names(constants, name_reads(program_trees())) == set()


def test_module_constants_unread_detects_a_constant_only_assigned_or_imported():
    module = ast.parse("EXIT_OK = 0\nEXIT_USAGE = 2\n_CHUNK: int = 8\nA, B = 1, 2\n__all__ = []")
    program = ast.parse("from cli import EXIT_USAGE\nreturn_code = EXIT_OK\nx = T._CHUNK\nB = 3")
    assert unread_names(module_constants({"cli": module}), name_reads([program])) == {
        "cli.EXIT_USAGE", "cli.A", "cli.B"}


def _passes(call: ast.Call, arg: str, index: int | None, bound: bool) -> bool:
    """Whether `call` passes the parameter `arg`, at position `index` (None
    if keyword-only) of a function that is a method if `bound`."""
    if any(keyword.arg in (arg, None) for keyword in call.keywords):  # by name, or **
        return True
    if index is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    # a method called through an attribute gets its self (or cls) from it
    return index - (bound and isinstance(call.func, ast.Attribute)) < len(call.args)


def unpassed_defaults(modules: dict[str, ast.Module], program: list[ast.Module]) -> set[str]:
    """`module.function(param)` for each defaulted parameter of a function
    (or method) in `modules`, dunders aside, that no call in `program`
    passes. Calls are matched by the function's name alone."""
    calls: dict[str, list[ast.Call]] = {}
    for node in (n for tree in program for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        calls.setdefault(name, []).append(node)
    found = set()
    for module, tree in modules.items():
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or is_dunder(fn.name):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, default in zip(fn.args.kwonlyargs,
                                                          fn.args.kw_defaults)
                       if default is not None]
            for arg, index in params:
                if not any(_passes(c, arg, index, id(fn) in methods) for c in calls.get(fn.name, [])):
                    found.add(f"{module}.{fn.name}({arg})")
    return found


def test_every_defaulted_parameter_is_passed_by_a_program():
    found = unpassed_defaults(package_modules(), program_trees())
    assert {f for f in found if re.match(r"\w+\.(\w+)", f)[1] not in TEST_ONLY} == set(
        UNPASSED_DEFAULTS)


def test_unpassed_defaults_detects_a_parameter_no_call_passes():
    module = ast.parse(textwrap.dedent("""
        def events(stages, lights_out=0, labels=None, *, strict=False, fill=None):
            pass
        class Grad:
            def tile(self, rows, cols=None, scale=1):
                pass
            def __array__(self, dtype=None):
                pass
    """))
    program = ast.parse(textwrap.dedent("""
        events(s, 3)
        events(*args, fill=1)
        g.tile(r, c)
    """))
    assert unpassed_defaults({"synthetic": module}, [program]) == {
        "synthetic.events(strict)", "synthetic.tile(scale)"}
