#!/usr/bin/env python3
"""Benchmark the compiled IoU kernel against the pure-numpy fallback.

Usage: python3 benchmarks/bench_iou.py [--sizes 10,20,40,80] [--repeat 30]

Boxes are spread over two squares: 80 m (+-40 m), where association-sized
sets overlap often, and 200 m (+-100 m, the world of the dense benchmark
workload), where almost every pair is rejected before the polygon clip.
"""

import argparse
import timeit

import numpy as np

from coopmot.geometry import _pure

try:
    from coopmot.geometry import _native
except ImportError:
    _native = None


def random_boxes(rng, n, spread=40.0):
    return np.concatenate([
        rng.uniform(-spread, spread, (n, 2)),
        rng.uniform(-1, 1, (n, 1)),
        rng.uniform(-np.pi, np.pi, (n, 1)),
        rng.uniform(1.0, 2.0, (n, 1)),
        rng.uniform(1.5, 2.0, (n, 1)),
        rng.uniform(3.5, 5.0, (n, 1)),
    ], axis=1)


def bench(kernel, rows, cols, repeat):
    best = min(timeit.repeat(lambda: kernel.iou3d_matrix(rows, cols),
                             number=1, repeat=repeat))
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10,20,40,80")
    parser.add_argument("--repeat", type=int, default=30)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    rng = np.random.default_rng(0)
    print(f"{'side (m)':>8} {'N x N':>8} {'pure (ms)':>12} {'native (ms)':>12} "
          f"{'speedup':>9}")
    for spread in (40.0, 100.0):
        for n in sizes:
            rows = random_boxes(rng, n, spread)
            cols = random_boxes(rng, n, spread)
            t_pure = bench(_pure, rows, cols, args.repeat)
            head = f"{2 * spread:>8.0f} {n:>4}x{n:<3} {1e3 * t_pure:>12.3f}"
            if _native is None:
                print(f"{head} {'n/a':>12} {'n/a':>9}")
                continue
            t_native = bench(_native, rows, cols, args.repeat)
            worst = np.max(np.abs(_native.iou3d_matrix(rows, cols)
                                  - _pure.iou3d_matrix(rows, cols)))
            assert worst < 1e-12, f"backend mismatch: {worst}"
            print(f"{head} {1e3 * t_native:>12.3f} {t_pure / t_native:>8.1f}x")
    if _native is None:
        print("compiled kernel not built; run: python3 setup.py build_ext --inplace")


if __name__ == "__main__":
    main()
