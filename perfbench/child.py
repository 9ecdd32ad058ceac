"""One benchmark process: drive `sdnfilt run` once and record its timings.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json (written by run.py) names the repository root, the argv handed
to `sdnfilt.cli.main`, the scenario's boundary functions and the path of
the record to write.

Untraced, the only instrumentation is the setup marker: a wrapper around
the scenario's first per-trial function that notes the time of its first
call. Traced, every public function of every sdnfilt module is wrapped
under each name it is bound to, and each call becomes a span
[name, start, end, parent, trial]. Spans stay in memory and are written
with the record after the run. All times are `time.monotonic()`, the
clock run.py reads just before it starts this process.
"""

import functools
import inspect
import json
import os
import resource
import sys
import time

LAYERS = ("graphs", "filters", "preconditioners", "solvers", "sdn",
          "scenarios", "io")

# Class methods traced besides the module-level functions. None marks a
# method whose calls are only counted: it runs once per power iteration
# and solver step, so a span per call would dominate the trace.
CLASS_METHODS = {
    "filters.GraphFilter.__init__": "span",
    "filters.GraphFilter.matvec": None,
    "sdn.SdnNetwork.__init__": "span",
    "sdn.SdnNetwork.distributed_preconditioner": "span",
    "sdn.SdnNetwork.spgda_setup": "span",
    "sdn.SdnNetwork.run_pgda": "span",
    "sdn.SdnNetwork.run_spgda": "span",
}


def _program_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "sdnfilt" or name.startswith("sdnfilt."))]


def _rebind(old, new):
    """Replace `old` by `new` under every name any sdnfilt module binds it
    to; callers that imported a function by name see the wrapper too."""
    for mod in _program_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def _resolve(qualname):
    """'filters.GraphFilter.matvec' -> (owner, attribute, object), or None
    when a refactor removed it."""
    layer, *path = qualname.split(".")
    owner = sys.modules.get(f"sdnfilt.{layer}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, path[-1]):
        return None
    return owner, path[-1], getattr(owner, path[-1])


class Marker:
    """Times of calls to one boundary function."""

    def __init__(self, qualname, keep_all):
        self.qualname = qualname
        self.keep_all = keep_all
        self.times = []

    def install(self, on_call=None) -> bool:
        found = _resolve(self.qualname)
        if found is None:
            return False
        owner, attr, fn = found
        times, keep_all = self.times, self.keep_all

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if keep_all or not times:
                times.append(time.monotonic())
            if on_call is not None:
                on_call()
            return fn(*args, **kwargs)

        if inspect.isclass(owner):
            setattr(owner, attr, marked)
        else:
            _rebind(fn, marked)
        return True


class Tracer:
    """In-memory spans and exact counters around calls into each layer."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.trial = -1
        self.wrapped = []
        self.counters = {}
        self.hook_errors = {}
        self._net_seen = {}

    def bump(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.trial]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(span, args, result)
                except (AttributeError, TypeError, ValueError, KeyError) as exc:
                    self.hook_errors[name] = repr(exc)
            return result

        return traced

    def counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.bump(name)
            return fn(*args, **kwargs)

        return counted

    # ---- counter hooks: read what a layer returns, never change it ------

    def _on_radius(self, span, args, result):
        self.bump("filters.power_iterations", int(result.iterations))
        parent = self.spans[span[3]][0] if span[3] >= 0 else ""
        if parent != "filters.extreme_singular_values":
            self.bump("filters.radius_estimates")
            self.bump("filters.radius_unconverged", int(not result.converged))

    def _on_singular_values(self, span, args, result):
        self.bump("filters.singular_value_pairs")
        self.bump("filters.singular_values_unconverged", int(not result.converged))

    def _on_solve(self, span, args, result):
        _, trace = result
        method = trace.method
        self.bump("solvers.solves")
        self.bump("solvers.iterations", int(trace.iterations))
        self.bump(f"solvers.iterations.{method}", int(trace.iterations))
        self.bump("solvers.diverged", int(trace.status == "diverged"))
        self.counters[f"solvers.solve_s.{method}"] = (
            self.counters.get(f"solvers.solve_s.{method}", 0.0) + span[2] - span[1])

    def _sdn_hook(self, kind):
        def hook(span, args, result):
            net = args[0]
            rounds, messages = len(net.rounds), net.total_messages()
            if kind == "deploy":
                self._net_seen[id(net)] = (rounds, messages)
                return
            seen_r, seen_m = self._net_seen.get(id(net), (0, 0))
            self._net_seen[id(net)] = (rounds, messages)
            self.bump(f"sdn.rounds.{kind}", rounds - seen_r)
            self.bump("sdn.rounds", rounds - seen_r)
            self.bump("sdn.messages", messages - seen_m)
        return hook

    def hooks(self):
        return {
            "filters.power_spectral_radius": self._on_radius,
            "filters.extreme_singular_values": self._on_singular_values,
            "solvers.solve": self._on_solve,
            "sdn.SdnNetwork.__init__": self._sdn_hook("deploy"),
            "sdn.SdnNetwork.distributed_preconditioner": self._sdn_hook("precond"),
            "sdn.SdnNetwork.spgda_setup": self._sdn_hook("precond"),
            "sdn.SdnNetwork.run_pgda": self._sdn_hook("pgda"),
            "sdn.SdnNetwork.run_spgda": self._sdn_hook("spgda"),
        }

    def install(self):
        hooks = self.hooks()
        for layer in LAYERS:
            mod = sys.modules.get(f"sdnfilt.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                _rebind(fn, self.wrap(name, fn, hooks.get(name)))
                self.wrapped.append(name)
        for name, mode in CLASS_METHODS.items():
            found = _resolve(name)
            if found is None:
                continue
            owner, attr, fn = found
            new = (self.wrap(name, fn, hooks.get(name)) if mode == "span"
                   else self.counted(name, fn))
            setattr(owner, attr, new)
            self.wrapped.append(name)

    def next_trial(self):
        self.trial += 1


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from sdnfilt import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"sdnfilt imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    record = {"missing": []}
    setup = Marker(spec["setup_marker"], keep_all=False)
    main_fn = cli.main
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        trials = Marker(spec["trial_marker"], keep_all=True)
        if not trials.install(on_call=tracer.next_trial):
            record["missing"].append(spec["trial_marker"])
        main_fn = tracer.wrap("cli.main", cli.main)
    # the setup marker goes on last, outermost, so its time precedes any span
    if not setup.install():
        print(f"setup marker {spec['setup_marker']} not found", file=sys.stderr)
        return 2

    record["t_main_start"] = time.monotonic()
    record["rc"] = main_fn(spec["argv"])
    record["t_end"] = time.monotonic()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["maxrss_kb"] = usage.ru_maxrss
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["t_setup"] = setup.times[0] if setup.times else None
    if tracer is not None:
        record["trial_starts"] = trials.times
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
        record["wrapped"] = tracer.wrapped
        record["hook_errors"] = tracer.hook_errors
    if spec.get("environment"):
        record["environment"] = _environment()
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
