"""No ``**`` enters a published number unannounced.

IEEE 754 does not fix the rounding of ``pow``: ``x**2`` differs from the
correctly rounded ``x * x`` for some doubles on some C libraries, so a
power in a published path can change its last digit from one machine to
the next. Each power left in ``src/smmport`` is listed here with its
reason; any other makes this test fail.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "smmport"

# (module, enclosing function, source text) -> how many times it may occur
ALLOWED = collections.Counter({
    # an exact integer bound
    ("lcem.py", "__post_init__", "2**64"): 1,
    # the bandwidth rule's T**(-1/5) has no product form
    ("leverage.py", "silverman_bandwidth", "xs.size ** (-0.2)"): 1,
})


def powers_in_source() -> collections.Counter:
    found = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner[node] = func.name  # the innermost function wins
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                found[path.name, owner.get(node), ast.get_source_segment(text, node)] += 1
    return found


def test_every_power_is_allowed():
    extra = powers_in_source() - ALLOWED
    assert not extra, f"** outside the allow-list: {dict(extra)}"


def test_scan_finds_the_allowed_powers():
    # guards the scan itself: a walk that found nothing would pass the test above
    assert powers_in_source() == ALLOWED
