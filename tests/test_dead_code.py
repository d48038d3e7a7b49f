"""No definition in ``src/repro`` that nothing outside its own tests uses.

Every ``def`` and ``class`` under ``src/repro`` (dunders excluded) must
have its name appear at least once more somewhere in ``src/``,
``benchmarks/``, ``examples/`` or ``e2ebench/``. A name found only at
its own definition is reached by no command, benchmark or example:
delete it together with its unit tests, or, when a suite that checks
other code depends on it, add it to ``ALLOWED`` with the reason.

The scan counts identifier tokens, so it cannot tell two definitions
that share a name apart, and a re-export in an ``__init__`` counts as
a use. It catches dead leaves, not dead modules.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples", "e2ebench")

#: Definitions kept although only tests call them, each with its reason.
ALLOWED = {
    "allocate_specific":
        "held to its oracle by tests/registry/test_pool_properties.py",
    "remove_inetnum":
        "held to its oracle by tests/whois/test_database_properties.py",
    "is_cidr_aligned":
        "checked against from_range in tests/whois/test_database_properties.py",
    "by_status":
        "the whois, delegated-stats and world suites query databases with it",
    "read_snapshots":
        "reads back the rpki/ snapshots that `repro generate` writes",
    "region_of":
        "tests/simulation/test_ledger_invariant_properties.py places "
        "each ledger prefix in its region with it",
    "whois_request":
        "the one-shot port-43 client tests/serve/test_server.py drives "
        "the server with",
    "commission_amounts":
        "the last behaviour of market/broker.py, which only tests and a "
        "re-export reach (ROADMAP)",
    "render_file":
        "delegated-extended codec of registry/delegated_stats.py, which "
        "only tests and a re-export reach (ROADMAP)",
    "parse_file":
        "delegated-extended codec of registry/delegated_stats.py, which "
        "only tests and a re-export reach (ROADMAP)",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _name_counts():
    counts = collections.Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(re.findall(
                r"[A-Za-z_][A-Za-z0-9_]*", path.read_text(encoding="utf-8")
            ))
    return counts


def _unreferenced():
    counts = _name_counts()
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if counts[name] <= 1:
                found[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return found


def test_every_definition_is_used_outside_its_tests():
    dead = {
        name: where for name, where in _unreferenced().items()
        if name not in ALLOWED
    }
    assert not dead, "unreferenced definitions: " + ", ".join(
        f"{name} ({where})" for name, where in sorted(dead.items())
    )


def test_every_allowed_name_is_still_unreferenced():
    stale = set(ALLOWED) - set(_unreferenced())
    assert not stale, f"used or gone, drop from ALLOWED: {sorted(stale)}"
