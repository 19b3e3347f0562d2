"""Every mutant of the mutation audit (`mutants/run.py`) still applies: its
old text occurs exactly once in its file, and every test it names exists.
The audit itself takes minutes; this finds a moved line in the suite. The
README's count of killed mutants is the audit's count."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    if "mutant_audit" not in sys.modules:  # its dataclass looks its module up there
        spec = importlib.util.spec_from_file_location("mutant_audit", ROOT / "mutants" / "run.py")
        sys.modules["mutant_audit"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["mutant_audit"].MUTANTS


def test_every_mutant_patches_one_place():
    stale = [m.name for m in _mutants() if (ROOT / m.file).read_text().count(m.old) != 1]
    assert stale == []


def test_every_named_killer_exists():
    defined: dict[str, set[str]] = {}
    missing = []
    for m in _mutants():
        for test in m.tests:
            path, _, name = test.partition("::")
            if path not in defined:
                tree = ast.parse((ROOT / path).read_text())
                defined[path] = {node.name for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
            if name.split("[")[0] not in defined[path]:
                missing.append(f"{m.name}: {test}")
    assert missing == []


def test_readme_counts_every_mutant():
    counts = re.findall(r"All\s+(\d+)\s+are\s+killed", (ROOT / "README.md").read_text())
    assert counts == [str(len(_mutants()))]
