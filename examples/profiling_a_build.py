"""Profiling a build: where does the measurement chain spend its time?

Runs the full session-level build (generation → GTP → DPI →
aggregation) under an observation session and prints the span trace
tree — wall-clock, self-time and peak RSS per stage — plus the largest
event counters.  See docs/observability.md for the metrics contract.

Run:
    python examples/profiling_a_build.py
"""

from repro import obs
from repro._units import format_bytes
from repro.dataset.builder import build_session_level_dataset
from repro.geo.country import CountryConfig


def main() -> None:
    print("Building the session-level dataset under observation...")
    with obs.observed() as session:
        build_session_level_dataset(
            n_subscribers=2_000,
            country_config=CountryConfig(n_communes=400),
            seed=7,
            n_workers=2,
        )
    dump = session.export(meta={"seed": 7})

    # The span tree: stages nest as the pipeline does, same-named
    # stages (one per shard) accumulate into one node.
    print()
    print("span tree (wall-clock, timing-class: never compared):")
    for row in obs.flatten(session.root):
        indent = "  " * row["depth"]
        print(
            f"  {indent}{row['name']:<{24 - 2 * row['depth']}s}"
            f" {row['elapsed_s']:7.3f} s"
            f"  (self {row['self_s']:6.3f} s, x{row['count']},"
            f" peak rss {format_bytes(row['peak_rss_bytes'])})"
        )

    # The five busiest event counters — deterministic for this seed and
    # shard count whatever the worker count (the dataset itself depends
    # on the seed alone; batch counts follow the shards).
    counters = sorted(
        dump["counters"].items(), key=lambda item: item[1], reverse=True
    )
    print()
    print("top-5 counters (events-class: identical across reruns):")
    for name, value in counters[:5]:
        print(f"  {name:<28s} {value:>12,} {obs.SPECS[name].unit}")

    print()
    print("full dump: repro-obs build --seed 7 --out run.json")


if __name__ == "__main__":
    main()
