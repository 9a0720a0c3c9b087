"""One benchmark client: import zczseq, run CLI commands in order, report.

Run by ``run.py`` as ``python3 child.py SPEC.json``.  The spec names the
timed commands, whether to trace, and where to write the result JSON.
Timing starts in the parent (at spawn) and the first mark is taken here
right after ``import zczseq`` returns.

With tracing on, the public functions of the five modules are wrapped where
their callers look them up, and every call becomes a span
``[name, start, end, parent, run_id]`` held in memory and written out with
the result.
"""

import contextlib
import io
import json
import resource
import sys
import time

import zczseq  # noqa: F401  (this import is what setup_s times)

t_imported = time.monotonic()

from zczseq import cli, construction, correlation, gbf, qscdma  # noqa: E402

# (module, attribute, span name); a span's layer is the part before the dot.
TRACED_FUNCTIONS = (
    (cli, "main", "cli.main"),
    (correlation, "verify_zcz", "correlation.verify_zcz"),
    (correlation, "verify_inter_zccz", "correlation.verify_inter_zccz"),
    (correlation, "accf", "correlation.accf"),
    (correlation, "pccf", "correlation.pccf"),
    (correlation, "correlation_spectrum", "correlation.correlation_spectrum"),
    (construction, "build_multiple_zcz", "construction.build_multiple_zcz"),
    (construction, "export_family", "construction.export_family"),
    (construction, "load_family", "construction.load_family"),
    (construction, "build_ccc_family", "construction.build_ccc_family"),
    (construction, "check_chunk_decomposition", "construction.check_chunk_decomposition"),
    (construction, "psi", "gbf.psi"),
    (qscdma, "simulate_ber", "qscdma.simulate_ber"),
)
TRACED_METHODS = (
    (gbf.GeneralizedBooleanFunction, "truth_table", "gbf.truth_table"),
    (correlation.SpectrumTable, "write_csv", "correlation.write_csv"),
)


class Tracer:
    """Span recorder; spans nest by call order (single-threaded client)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.recording = False
        self.spans = []
        self.chips = 0
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = [name, start, end, parent, self.run_id]
            if name == "gbf.psi":
                self.chips += len(result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "zczseq" or n.startswith("zczseq.")]
        for owner, attr, name in TRACED_FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        for cls, attr, name in TRACED_METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))


def run_commands(commands):
    """Run each argv through cli.main; returns [{rc, seconds, stdout_bytes}]."""
    out = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = cli.main(argv)
            seconds = time.perf_counter() - start
        out.append({"rc": rc, "seconds": seconds, "stdout_bytes": len(buf.getvalue().encode())})
    return out


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"t_imported": t_imported}
    tracer = Tracer(spec.get("run_id", ""))
    if spec.get("trace"):
        tracer.install()
        tracer.recording = True
    result["commands"] = run_commands(spec.get("commands", []))
    tracer.recording = False
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec.get("trace"):
        result["spans"] = tracer.spans
        result["psi_chips"] = tracer.chips
    if spec.get("environment"):
        result["environment"] = environment()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
