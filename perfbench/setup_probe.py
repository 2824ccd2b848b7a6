"""One set-up in a fresh interpreter: import gf4bp, load a code file, build its graph.

usage: python3 setup_probe.py SRC_DIR CODE_FILE
Prints the seconds `import numpy` took, then the seconds from just before
that import (the first thing `import gf4bp` would do) to just after
`TannerGraph(code)`; interpreter start-up is not included.
"""

import sys
import time


def main(src_dir, code_file):
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - start
    import gf4bp

    code = gf4bp.load_code(code_file)
    gf4bp.TannerGraph(code)
    print(repr(numpy_s), repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:3])
