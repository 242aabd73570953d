"""Run the snbd CLI with spans recorded around the calls into each module.

    python perfbench/trace_child.py TRACE_DIR <snbd CLI arguments>

Nothing under src/snbd is edited.  The wrappers replace module attributes
that their callers look up at call time, named where they are called
(``snbd.ensemble.propagate_block``, ``snbd.cli.recover``, ...), so a call
made elsewhere, such as recovery's own internal calls, is not counted.
Spans (name, start, end, parent) and counters stay in memory and are
written to TRACE_DIR/spans-<pid>.json when the process ends; forked pool
workers write their own file, and their spans point at the parent's span
that was open when the pool started.  TRACE_DIR/import.json holds the
time of ``import snbd.cli`` in this fresh interpreter.
"""

import json
import multiprocessing.util
import os
import sys
import time
from functools import wraps


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.sums = {}
        self.peaks = {}
        self.seq = 0

    def _adopt_fork(self):
        """A forked worker inherits the parent's spans; keep only the open
        stack, as the cause of the worker's spans, and write at exit."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.sums, self.peaks = [], {}, {}
            multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            self._adopt_fork()
            self.seq += 1
            sid = f"{self.pid}:{self.seq}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent})
        return traced

    def add(self, name, n):
        self.sums[name] = self.sums.get(name, 0) + n

    def peak(self, name, n):
        self.peaks[name] = max(self.peaks.get(name, 0), n)

    def write(self):
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "sums": self.sums, "peaks": self.peaks}, fh)


def install(tracer):
    """Wrap the module attributes the CLI run goes through."""
    import snbd.cli as cli
    import snbd.ensemble as ensemble
    import snbd.output as output
    import snbd.propagator as propagator

    plain = [
        (cli, "parse_config", "config.parse"),
        (cli, "run_ensemble", "ensemble.run_ensemble"),
        (cli, "jackknife_density_scalar", "ensemble.jackknife_density"),
        (cli, "recover", "recovery.recover"),
        (cli, "jackknife_recovery", "recovery.jackknife_recovery"),
        (cli, "propagate_exact", "oracle.propagate_exact"),
        (ensemble, "_batched_kron", "ensemble.batched_kron"),
        (ensemble, "_batched_refvec", "ensemble.batched_refvec"),
        (output.RunWriter, "write_csv", "output.write"),
        (output.RunWriter, "write_density_bin", "output.write"),
        (output.RunWriter, "finalize", "output.write"),
    ]
    for owner, attr, name in plain:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    draw_noise_chunk = propagator._draw_noise_chunk

    def draw(rngs, n_steps, p, npairs, dt):
        out = draw_noise_chunk(rngs, n_steps, p, npairs, dt)
        tracer.add("traj_steps", len(rngs) * n_steps)
        tracer.add("noise_normals", 2 * len(rngs) * n_steps * p * npairs)
        tracer.peak("noise_chunk_bytes", out.nbytes)
        return out

    propagator._draw_noise_chunk = tracer.wrap("propagator.noise_draw", draw)

    propagate_block = ensemble.propagate_block

    def block(spec, master_seed, start, count, t_final, dt, record_stride,
              on_record, **options):
        timed_record = tracer.wrap("ensemble.on_record", on_record)
        last_active = [0]

        def record(r_index, t, rhos, active, min_eigs):
            last_active[0] = int(active.sum())
            tracer.add("records", 1)
            return timed_record(r_index, t, rhos, active, min_eigs)

        stats = propagate_block(spec, master_seed, start, count, t_final, dt,
                                record_stride, record, **options)
        tracer.add("launched", count)
        tracer.add("active_at_last_record", last_active[0])
        tracer.add("skipped",
                   len(stats.blowups) + len(stats.positivity_skips))
        return stats

    ensemble.propagate_block = tracer.wrap("propagator.propagate_block", block)
    return cli


def main(argv):
    out_dir, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import snbd.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - start
    with open(os.path.join(out_dir, "import.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"import_s": import_s}, fh)
    tracer = Tracer(out_dir)
    cli = install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
