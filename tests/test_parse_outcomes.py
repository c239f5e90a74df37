"""Differential test of the `.poly` line parser against a committed table.

fixtures/parse_outcomes.json holds 2,000 seeded random lines and what
`parse_system` made of each: the variables and each polynomial's rendering
and position, or the ParseError text.  The table was written by the parser
that `parsing._sum` replaced, whose grammar rules were nested functions.
Running this file as a script rewrites it with the `cadorder` found first on
the import path:

    PYTHONPATH=<older checkout>/src python tests/test_parse_outcomes.py
"""

import gc
import json
import random
from pathlib import Path

from cadorder import ParseError, parse_system

TABLE = Path(__file__).parent / "fixtures" / "parse_outcomes.json"
TOKENS = ["x", "y", "z", "2", "10", "0", "+", "-", "*", "^", "(", ")", " ", "$", "ab"]


def random_texts(seed=24, count=2000):
    """Lines of 1-14 tokens, joined without separators (a space is a token),
    a fifth of them after a `vars: x, y` line."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        line = "".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 14)))
        texts.append("vars: x, y\n" + line if rng.random() < 0.2 else line)
    return texts


def outcome(text):
    try:
        system = parse_system(text)
    except ParseError as exc:
        return str(exc)
    return [
        [str(v) for v in system.variables],
        [[str(p), *position] for p, position in zip(system.polynomials, system.positions)],
    ]


def test_outcomes_match_the_table():
    table = json.loads(TABLE.read_text())
    assert [text for text, _ in table] == random_texts()
    mismatches = [(text, want, outcome(text)) for text, want in table if outcome(text) != want]
    assert mismatches == []


def test_parsing_leaves_no_cyclic_garbage():
    """A parsed line is freed by reference counting alone: nothing the parser
    builds refers back to itself."""
    text = "vars: x, y\n(x + 1)*((y - 2)^2 - -x)\n-(x*y - (3 + y))^3 + 2\n"
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            parse_system(text)
        assert gc.collect() == 0
    finally:
        gc.enable()


if __name__ == "__main__":
    rows = [[text, outcome(text)] for text in random_texts()]
    TABLE.write_text(json.dumps(rows, separators=(",", ":")) + "\n")
