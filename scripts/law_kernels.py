#!/usr/bin/env python3
"""Time the law kernels on generated models of several sizes.

For each size the script draws one valid model as `checker.generate_model`
does, with 16 propositions, 8 observables and spectra of up to 4 values.
`GeneratorParams` stops at 64 states, so the script calls the generator's
body, `checker._draw_model`, over a space of any size, built once per
size as `generate_model` keeps one.  It prints the median milliseconds of
drawing that model (`generate`), of `checker.check_laws`, of
`core.validate_model`, of one `core.classify_pair` (`pair`), of one
`core.pair_class` (`class`) and of one `core._compatible` (`compat`,
the yes/no decision `check_laws` asks), the last three averaged over
every observable pair, over `--repeats` calls each, and the violations
found (0 on a valid model).
The `path` column says whether each `PropMap.table` is bytes
("byte-coded", up to 255 states) or a tuple ("scan-only", past 255
states).  The header line gives the Python version.

Only the generator and the law kernels are called, so the same script
times any checkout that has `checker._draw_model` put on PYTHONPATH.  It
makes no assertions.
"""

import argparse
import platform
import random
import statistics
import time

from gqt import checker, core

N_PROPS, N_OBS, MAX_SPECTRUM = 16, 8, 4


def generated_model(space: core.StateSpace, seed: int) -> core.Model:
    return checker._draw_model(random.Random(seed), space, N_PROPS, N_OBS, MAX_SPECTRUM)


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="*", default=[8, 64, 255, 256, 300], help="states per model")
    parser.add_argument("--repeats", type=int, default=20, help="calls per kernel; the median is printed (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    args = parser.parse_args(argv)

    print(
        f"Python {platform.python_version()}; {N_PROPS} propositions, {N_OBS} observables,"
        f" median ms of {args.repeats} calls"
    )
    print(
        f"{'states':>6} {'path':>10} {'generate':>9} {'check_laws':>11} {'validate':>9} {'pair':>7} {'class':>7}"
        f" {'compat':>7} {'violations':>10}"
    )
    for n in args.sizes:
        space = core.StateSpace(tuple(f"s{i}" for i in range(n)))
        generate_ms = median_ms(lambda: generated_model(space, args.seed), args.repeats)
        model = generated_model(space, args.seed)
        observables = [model.observables[name] for name in sorted(model.observables)]
        pairs = [(a, b) for i, a in enumerate(observables) for b in observables[i:]]
        one = model.propositions["ONE"].yes
        path = "byte-coded" if type(one.table) is bytes else "scan-only"
        check_ms = median_ms(lambda: checker.check_laws(model), args.repeats)
        validate_ms = median_ms(lambda: core.validate_model(model), args.repeats)
        pair_ms = median_ms(lambda: [core.classify_pair(a, b) for a, b in pairs], args.repeats) / len(pairs)
        class_ms = median_ms(lambda: [core.pair_class(a, b) for a, b in pairs], args.repeats) / len(pairs)
        compat_ms = median_ms(lambda: [core._compatible(a, b) for a, b in pairs], args.repeats) / len(pairs)
        violations = len(checker.check_laws(model)) + len(core.validate_model(model))
        print(
            f"{n:>6} {path:>10} {generate_ms:>9.3f} {check_ms:>11.3f} {validate_ms:>9.3f} {pair_ms:>7.4f}"
            f" {class_ms:>7.4f} {compat_ms:>7.4f} {violations:>10}"
        )


if __name__ == "__main__":
    main()
