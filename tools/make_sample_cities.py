"""Generate a synthetic cities dataset, by default the bundled sample.

Writes N cities (default 1000) in 20 invented countries, each country a
compact cluster of at least 3 cities with log-normal populations.  The
extra elevation column is deliberate; the loader must ignore columns it
does not know.  Fully deterministic: with the defaults it rewrites
src/branchflow/data/cities_sample.csv byte for byte.

    python tools/make_sample_cities.py
    python tools/make_sample_cities.py --n-cities 50000 --out /tmp/cities_50k.csv
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

N_CITIES = 1000
SEED = 20240817
SAMPLE_PATH = Path(__file__).resolve().parents[1] / "src" / "branchflow" / "data" / "cities_sample.csv"

COUNTRIES = [
    "Aravelle", "Borvia", "Caldria", "Dorsania", "Elvenia",
    "Fjordane", "Galvora", "Hestland", "Ithria", "Jundara",
    "Kesteron", "Lumavia", "Morvania", "Nordyssa", "Ostrelia",
    "Penrovia", "Qirestan", "Rovandia", "Sulmara", "Tervenia",
]
MIN_PER_COUNTRY = 3


def write_cities(n_cities: int, path: Path) -> None:
    """Write ``n_cities`` seeded cities to ``path`` as CSV."""
    k = len(COUNTRIES)
    if n_cities < MIN_PER_COUNTRY * k:
        raise ValueError(
            f"n_cities must be at least {MIN_PER_COUNTRY * k} "
            f"({MIN_PER_COUNTRY} per country), got {n_cities}"
        )
    rng = np.random.default_rng(SEED)

    sizes = np.full(k, MIN_PER_COUNTRY)
    weights = rng.dirichlet(np.full(k, 1.5))
    sizes = sizes + rng.multinomial(n_cities - sizes.sum(), weights)

    centers_lat = rng.uniform(-60.0, 70.0, k)
    centers_lon = rng.uniform(-180.0, 180.0, k)
    spreads = rng.uniform(1.5, 5.0, k)

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["city", "country", "lat", "lng", "population", "elevation"])
        for c, country in enumerate(COUNTRIES):
            lat = np.clip(centers_lat[c] + rng.normal(0, spreads[c], sizes[c]), -89.0, 89.0)
            lon = centers_lon[c] + rng.normal(0, spreads[c], sizes[c])
            pop = np.maximum(np.round(rng.lognormal(11.0, 1.2, sizes[c])), 100).astype(np.int64)
            elev = np.round(rng.uniform(0, 2500, sizes[c]), 1)
            for i in range(sizes[c]):
                writer.writerow(
                    [f"{country} {i + 1:03d}", country,
                     f"{lat[i]:.6f}", f"{lon[i]:.6f}", int(pop[i]), elev[i]]
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-cities", type=int, default=N_CITIES,
                        help=f"number of cities (default {N_CITIES})")
    parser.add_argument("--out", type=Path, default=SAMPLE_PATH,
                        help="output CSV (default: the bundled sample)")
    args = parser.parse_args(argv)
    try:
        write_cities(args.n_cities, args.out)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
