"""Run one reglab CLI invocation in this process with its layer calls timed.

    PYTHONPATH=src python3 bench/traced_op.py SPANS_FILE OP_ID -- compute --l 7 ...

Wraps the public functions listed in TRACED, replacing the name in every
reglab module that imported it, then calls reglab.cli.main(argv) and exits
with its return code.  Each wrapped call becomes one span: name, start, end,
id, parent span id, op id and a few attributes.  Spans stay in memory and are
written to SPANS_FILE as JSON lines when the op ends, even if it raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# module -> public functions to time
TRACED = {
    "exact_series": ("a_coeffs", "b_coeffs", "series_pow_rational", "series_mul",
                     "series_inverse", "eisenstein_q_expansion"),
    "bigreal_periods": ("eval_IJ",),
    "regulator": ("regulator_closed_form",),
    "elliptic_oracle": ("direct_periods",),
    "weierstrass": ("fiber_list", "euler_epsilon", "hodge_and_dims"),
    "gauss_manin": ("picard_fuchs", "pf_relation"),
    "cli": ("compute_payload",),
}

# span name -> arguments recorded as attributes
ARG_ATTRS = {
    "exact_series.a_coeffs": ("alpha", "N"),
    "exact_series.b_coeffs": ("alpha", "N"),
    "bigreal_periods.eval_IJ": ("l", "j", "p"),
    "elliptic_oracle.direct_periods": ("l", "j", "p"),
}


def _result_attrs(name, result):
    if name == "bigreal_periods.eval_IJ":
        return {"N_used": result.N_used}
    if name == "elliptic_oracle.direct_periods":
        return {"error_estimate": float(result.error_estimate.value)}
    return {}


class Recorder:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        arg_names = ARG_ATTRS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "id": len(self.spans), "op": self.op_id,
                    "parent": self.stack[-1]["id"] if self.stack else None}
            if arg_names:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = {a: str(bound.arguments[a]) if a == "alpha"
                                 else bound.arguments[a] for a in arg_names}
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            span.setdefault("attrs", {}).update(_result_attrs(name, result))
            return result

        return traced

    def install(self):
        modules = {m: importlib.import_module("reglab." + m) for m in TRACED}
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                original = getattr(modules[mod_name], fn_name, None)
                if original is None:
                    continue  # renamed or removed: its metrics read 0
                wrapper = self.wrap("{}.{}".format(mod_name, fn_name), original)
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("reglab")
                            and getattr(module, fn_name, None) is original):
                        setattr(module, fn_name, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_op.py SPANS_FILE OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    path, op_id, cli_args = argv[0], int(argv[1]), argv[3:]
    recorder = Recorder(op_id)
    recorder.install()
    from reglab import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
