"""Scaling of the engine on chain theories.

A chain p0 => p1 => ... => pn with a periodic attacker every tenth link;
derivation time should grow linearly with n.

Run:  python demos/scaling.py [sizes]       e.g.  python demos/scaling.py 10000,20000,40000
"""

import sys

from dlog import bench_chain


def main():
    sizes = tuple(
        int(s) for s in (sys.argv[1] if len(sys.argv) > 1 else "25000,50000,100000").split(",")
    )
    points = bench_chain(sizes)
    for p in points:
        rate = p.size / p.seconds if p.seconds else float("inf")
        print(
            f"chain {p.size:>8}: {p.seconds:6.3f} s "
            f"({rate:,.0f} rules/s, {p.conclusions} conclusions)"
        )
    if len(points) >= 2:
        growth = points[-1].size / points[0].size
        print(f"median paired time ratio over a {growth:.0f}x size range: {points[-1].ratio:.2f}")


if __name__ == "__main__":
    main()
