"""Seeded random connected network for the ``grid100-design`` workload.

The bus/line distribution matches ``random_connected_spec`` in
``tests/conftest.py``: a random spanning tree plus ``n_buses // 2`` extra
lines, generator ``m_hat`` in [0.5, 2.5), ``d_hat`` in [0.2, 1.2), line
susceptances in [0.5, 5.5). The bound box and reference-bus convention
follow the bundled twelve-bus case, so both design problems live on the
same scale.

Run as a script to write one network file::

    python3 perfbench/netgen.py --seed 3 --out net.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

N_GENERATORS = 100
N_LOADS = 20
BOUNDS = {"m_lb": 0.0, "m_ub": 3.0, "d_lb": 0.0, "d_ub": 2.0}


def random_connected_spec(vt, rng: np.random.Generator, n_buses: int, n_loads: int = 0):
    """Random connected ``vt.NetworkSpec``: spanning tree plus a few extra lines."""
    kinds = ["generator"] * n_buses
    for i in rng.choice(n_buses, size=n_loads, replace=False):
        kinds[i] = "load"
    if all(k == "load" for k in kinds):
        kinds[0] = "generator"
    buses = tuple(
        vt.Bus(
            id=i + 1,
            kind=kinds[i],
            m_hat=float(0.5 + 2.0 * rng.random()) if kinds[i] == "generator" else 0.0,
            d_hat=float(0.2 + rng.random()) if kinds[i] == "generator" else 0.0,
        )
        for i in range(n_buses)
    )
    lines = []
    order = rng.permutation(n_buses)
    for a, b in zip(order[:-1], order[1:]):
        lines.append(vt.Line(int(buses[a].id), int(buses[b].id), float(0.5 + 5 * rng.random())))
    for _ in range(n_buses // 2):
        a, b = rng.choice(n_buses, size=2, replace=False)
        lines.append(vt.Line(int(buses[a].id), int(buses[b].id), float(0.5 + 5 * rng.random())))
    return vt.NetworkSpec(buses=buses, lines=tuple(lines))


def grid_document(vt, seed: int) -> dict:
    """JSON document of the seeded 100-generator, 20-load grid."""
    rng = np.random.default_rng(seed)
    spec = random_connected_spec(vt, rng, N_GENERATORS + N_LOADS, N_LOADS)
    doc = vt.NetworkDocument(spec=spec, defaults=dict(BOUNDS), ref_bus=spec.generator_ids[0])
    return vt.serialize_network(doc)


def write_grid(vt, seed: int, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(grid_document(vt, seed), indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import vsmtune as vt

    write_grid(vt, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
