#!/usr/bin/env python3
"""Runs one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into .bench_build/perfbench; later calls reuse that
tree, so the build tool only confirms the binary is current.  Build output
goes to stderr.  The last line of the binary's stdout is its JSON result;
this script checks its metric names and units against BENCHMARK.json (the
one list of metrics), adds every declared per-layer metric the workload
does not exercise as 0, and prints the result as its own last line.  The
exit code is non-zero when the build fails, the binary fails an output
check or emits a metric BENCHMARK.json does not declare, or it does not
finish in time.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join('.bench_build', 'perfbench')
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the binary; returns its path or None."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [['cmake', '-S', HERE, '-B', build_dir,
              '-DCMAKE_BUILD_TYPE=RelWithDebInfo'],
             ['cmake', '--build', build_dir, '--target', 'perfbench',
              '-j', jobs]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, 'perfbench')
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print('perfbench: build failed', file=sys.stderr)
        return 2
    # The socket lives in the build directory, relative to the checkout
    # root, so its path stays short enough for sockaddr_un.
    socket_path = os.path.join(BUILD_DIR, 'serve-%d.sock' % os.getpid())
    cmd = [binary, '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--trace', str(args.trace),
           '--socket', socket_path]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print('perfbench: run exceeded %d s' % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 2
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not complete_metrics(result['metrics'], args.trace):
        return 4
    print(json.dumps(result))
    return run.returncode


def complete_metrics(metrics, trace):
    """Checks `metrics` against BENCHMARK.json and adds, as 0, each declared
    per-layer metric the workload does not exercise.  Returns False on an
    undeclared name or a unit that differs from the declared one."""
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        declared = json.load(f)['per_layer' if trace else 'end_to_end']
    units = {m['name']: m['unit'] for m in declared}
    for name, m in metrics.items():
        if units.get(name) != m['unit']:
            print('perfbench: metric %s [%s] is not declared in BENCHMARK.json'
                  % (name, m['unit']), file=sys.stderr)
            return False
    absent = [name for name in units if name not in metrics]
    if absent and not trace:
        print('perfbench: end-to-end metrics missing: ' + ', '.join(absent),
              file=sys.stderr)
        return False
    if absent:
        print('perfbench: not exercised by this workload (reported as 0): '
              + ', '.join(absent), file=sys.stderr)
    ordered = {name: metrics.get(name, {'value': 0, 'unit': units[name]})
               for name in units}
    metrics.clear()
    metrics.update(ordered)
    return True


if __name__ == '__main__':
    sys.exit(main())
