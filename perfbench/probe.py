"""Set-up probe: a fresh interpreter becoming ready to compute.

Run as ``python3 perfbench/probe.py <src-dir>``.  It imports the
library from ``<src-dir>`` (which includes the monomial kernel's
self-validation at import) and loads the bundled surface data, prints
``ready``, then times building a monomial kernel over the same three
sample rings again, times the calibration kernel twice, and prints one
JSON line with the three phases and the mean calibration time.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import motivic_power
    t1 = time.perf_counter()
    if src not in Path(motivic_power.__file__).resolve().parents:
        print("error: imported motivic_power from outside %s" % src, file=sys.stderr)
        return 2
    from motivic_power import localdata, power, rings
    localdata.load_surface_series()
    t2 = time.perf_counter()
    print("ready", flush=True)
    t3 = time.perf_counter()
    power.Kernel("monomial", power._monomial_base, sample_rings=(
        rings.INTEGERS,
        rings.RingDescriptor(("L",), laurent=True),
        rings.RingDescriptor(("u", "v")),
    ))
    t4 = time.perf_counter()
    import calibrate
    calibration_s = (calibrate.calibrate() + calibrate.calibrate()) / 2
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "kernel_validate_s": t4 - t3,
                      "calibration_s": calibration_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
