"""Regenerate the benchmark's committed inputs and golden outputs.

    python3 perfbench/gen.py [--seed 0]

Writes ``data/corpus``, ``data/hard``, ``data/roots`` and ``data/smoke`` (the
``.poly`` pools; ``--seed`` picks the random corpus systems and the random
roots polynomials) and ``data/golden`` (the program's outputs on them, and on
the ``stats`` tables of the run's default seed).  The golden outputs record
what the program computes when this is run, so regenerate them only on
purpose.  Level-1 projection polynomials of the corpus and hard systems are
harvested into the roots pool, which needs the ``cadorder`` sources under
``src/``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cadorder  # noqa: E402
import cadorder.cli  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

DATA = workloads.DATA
FIXTURES = ROOT / "tests" / "fixtures" / "problems"
HARVEST_LARGEST = 16
HARVEST_SAMPLE = 84
SMOKE_ROOTS = "x^4 - 5*x^2 + 4\n"


def _write_pool(name: str, files: dict[str, str]) -> None:
    pool = DATA / name
    shutil.rmtree(pool, ignore_errors=True)
    pool.mkdir(parents=True)
    for item_id, text in files.items():
        (pool / f"{item_id}.poly").write_text(text, encoding="utf-8")


def _check_no_scalar_multiples(item_id: str, text: str) -> None:
    """The presentation scales polynomials; two lines that differ by a
    factor could then collapse into one and change Brown's counts."""
    system = cadorder.parse_system(text)
    canonical = {cadorder.canonicalize(p) for p in system.polynomials}
    if len(canonical) != len(system.polynomials):
        raise SystemExit(f"{item_id}: two polynomials differ only by a factor")


def harvest_level1(systems: dict[str, str], rng: random.Random) -> dict[str, str]:
    """Distinct level-1 projection polynomials over every ordering, renamed
    to x: the largest by (degree, coefficient bits) plus a seeded sample."""
    found: dict[str, tuple[int, int]] = {}
    for text in systems.values():
        system = cadorder.parse_system(text)
        for ordering in cadorder.enumerate_orderings(system.variables):
            ps = cadorder.full_projection(system, ordering)
            if len(ps.levels) < 2:
                continue
            for p in ps.levels[-1]:
                u = cadorder.to_univariate(p, ordering[0])
                coeffs = [int(c) for c in u.coefficients]
                bits = max(abs(c).bit_length() for c in coeffs)
                found.setdefault(inputs.utext(coeffs), (u.degree, bits))
    ranked = sorted(found, key=lambda t: (found[t][0], found[t][1], t), reverse=True)
    chosen = ranked[:HARVEST_LARGEST]
    rest = sorted(ranked[HARVEST_LARGEST:])
    chosen += rng.sample(rest, min(HARVEST_SAMPLE, len(rest)))
    return {f"level1_{i:03d}": text + "\n" for i, text in enumerate(chosen)}


def _outputs(pool: str, argv: list[str]) -> dict[str, str]:
    """The program's output on every file of a pool, by item id."""
    return {
        path.stem: workloads.run_cli(cadorder, [argv[0], str(path), *argv[1:]])
        for path in sorted((DATA / pool).glob("*.poly"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    args = parser.parse_args(argv)

    corpus = {
        f"fixture_{p.stem}": p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.poly"))
    }
    corpus.update(inputs.corpus_systems(args.seed))
    hard = inputs.hard_systems()
    for item_id, text in {**corpus, **hard}.items():
        _check_no_scalar_multiples(item_id, text)

    roots = harvest_level1({**corpus, **hard}, random.Random(f"harvest:{args.seed}"))
    dense = inputs.dense_roots_polys(random.Random(f"dense:{args.seed}"))
    roots.update({k: t + "\n" for k, t in dense.items()})
    factored = inputs.factored_roots_polys(random.Random(f"factored:{args.seed}"))
    roots.update({k: t + "\n" for k, (t, _) in factored.items()})

    _write_pool("corpus", corpus)
    _write_pool("hard", hard)
    _write_pool("roots", roots)
    _write_pool("smoke", {"p2": corpus["fixture_p2"], "roots": SMOKE_ROOTS})

    golden_dir = DATA / "golden"
    golden_dir.mkdir(exist_ok=True)
    golden = {
        "corpus": _outputs("corpus", ["analyze", "--heuristic", "all", "--format", "json"]),
        "hard": _outputs("hard", ["analyze", "--heuristic", "all", "--format", "json"]),
        "roots": _outputs("roots", ["roots"]),
    }
    for k, (_, count) in factored.items():
        if golden["roots"][k] != f"{count}\n":
            raise SystemExit(f"{k}: program counts {golden['roots'][k].strip()}, construction {count}")
    golden["stats"] = {
        item_id: workloads.StatsItem(item_id, data, picks, None).run(cadorder)[1]
        for item_id, (data, picks) in inputs.stats_tables(inputs.DEFAULT_SEED).items()
    }
    golden["smoke"] = {
        item.id: item.run(cadorder)[1] if isinstance(item, workloads.StatsItem) else item.run(cadorder)
        for item in workloads.smoke_items(golden={})
    }
    for name, doc in golden.items():
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        (golden_dir / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"corpus {len(corpus)}, hard {len(hard)}, roots {len(roots)} items written under {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
