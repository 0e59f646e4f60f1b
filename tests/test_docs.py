"""README.md states contracts only, and what it states matches the code.

The README names no private identifier of the package, so a change inside a
module never leaves the README stale; its example config runs; and its
config key table lists exactly the keys the parser reads, required exactly
where the parser requires them.
"""
import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

from sgdcheck import cli, config
from sgdcheck.checks import CHECKS
from sgdcheck.cli import ENV_OUTPUT_DIR
from sgdcheck.objective import FAMILIES
from sgdcheck.schedule import KINDS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def private_names() -> set[str]:
    """Every single-underscore name a module of the package defines at
    module or class level."""
    names = set()
    for path in (ROOT / "src" / "sgdcheck").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for statement in (statement for body in scopes for statement in body):
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names.add(statement.name)
            elif isinstance(statement, ast.Assign):
                names.update(target.id for target in statement.targets
                             if isinstance(target, ast.Name))
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                names.add(statement.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_the_readme_names_no_private_identifier():
    names = private_names()
    assert "_parse_keys" in names and "_StageBlocks" in names
    named = sorted(name for name in names if re.search(rf"(?<!\w){name}(?!\w)", README))
    assert named == []


def test_the_readme_example_config_runs_and_verifies(tmp_path, monkeypatch):
    [example] = re.findall(r"```json\n(.*?)```", README, re.S)
    path = tmp_path / "experiment.json"
    path.write_text(example, encoding="utf-8")
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path))
    assert cli.main(["run", str(path)]) == 0
    assert cli.main(["verify", str(path)]) == 0


def readme_key_table() -> dict[str, dict[str, bool]]:
    """section -> {key: whether the README marks it required}, from the
    table under "## Config keys"."""
    section = README.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    table: dict[str, dict[str, bool]] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|") or cells[0] in ("section", "---"):
            continue
        table.setdefault(cells[0], {})[cells[1].strip("`")] = cells[2] == "required"
    return table


def code_key_table(horizon: int) -> dict[str, dict[str, bool]]:
    """The same map from the key tables the config parser reads."""
    def required(keys: dict) -> dict[str, bool]:
        return {key: default is ... for key, (_, default) in keys.items()}

    table = {"top level": required(config._CONFIG_KEYS), "verify": required(config._VERIFY_KEYS)}
    for family, cls in FAMILIES.items():
        table[f"problem: {family}"] = dict.fromkeys(cls.config_keys, True)
    for kind, cls in KINDS.items():
        table[f"schedule: {kind}"] = {parameter.name: True for parameter in fields(cls)}
    for kind, check in CHECKS.items():
        table[f"checks: {kind}"] = required(check.keys(horizon))
    return table


# A check's key names and required keys do not depend on the horizon.
CODE_KEYS = code_key_table(horizon=500)


def test_the_readme_key_table_has_a_section_per_code_table():
    assert sorted(readme_key_table()) == sorted(CODE_KEYS)


@pytest.mark.parametrize("section", list(CODE_KEYS))
def test_the_readme_key_table_matches_the_code(section):
    assert readme_key_table().get(section) == CODE_KEYS[section]
