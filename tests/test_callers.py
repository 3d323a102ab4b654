"""Every top-level name defined in ``src/`` has a caller outside ``tests/``.

The check walks the syntax trees of ``src/``, ``scripts/`` and
``perfbench/``. A name counts as called when code there reads it, as a bare
name or as an attribute. Its own definition and the imports that re-export
it from an ``__init__.py`` are not reads. Names are matched by spelling
alone, so a local variable of the same name hides an unused definition: the
check can miss dead code but never flags a name that is read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although only tests call it
ALLOWED = {
    "load_weights": "reads the AENW files that `train --out` writes; no command reads them yet",
    "load_bank": "reads the banks that `train --bank-dir` writes; no command reads them yet",
    "ssim": "documented metric API, checked against its oracle",
    "entropy": "documented metric API, checked against its oracle",
    "mutual_information": "documented metric API, checked against its oracle",
    "train_common": "task-head stack of the commonness study (criterion C09)",
    "task_forward": "task-head stack of the commonness study (criterion C09)",
    "adapt_task": "task-head stack of the commonness study (criterion C09)",
    "pristine_corpus": "the README command that rebuilds default_model.niqe calls it",
    "METRIC_KEYS": "names the keys that combined_score(weights) accepts",
    "EXIT_USAGE": "names argparse's exit code 2",
}


def top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_package_name_has_a_caller_outside_tests():
    defined, read = set(), set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            if top == "src":
                defined.update(top_level_names(tree))
            read.update(reads(tree))
    uncalled = defined - read
    assert uncalled <= ALLOWED.keys(), f"no caller outside tests/: {sorted(uncalled - ALLOWED.keys())}"
    assert ALLOWED.keys() <= uncalled, f"called now, take off ALLOWED: {sorted(ALLOWED.keys() - uncalled)}"
