"""Child process that times one set-up: `import hypersub` plus building the
workload's inputs through the public API. Prints the seconds it took.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <f_star> <x_star_re> <x_star_im>
"""

import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    f_star, x_re, x_im = (float(v) for v in sys.argv[4:7])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))

    import workloads
    from instance import BUDGET_RECORD_EVERY, SIZES, TRACE_RECORD_EVERY, fermat_weber

    steps, verify_n = SIZES[size]
    if workload == "cli-verify":
        workloads.cli_commands(verify_n, seed, root / "scripts" / "configs", root)
    else:
        every = BUDGET_RECORD_EVERY if workload == "fw-budget" else TRACE_RECORD_EVERY
        ref = workloads.Reference(f_star, complex(x_re, x_im))
        workloads.fw_config(fermat_weber(seed), ref, steps, every)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
