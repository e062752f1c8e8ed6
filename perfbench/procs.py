"""Process helpers: timed runs with rusage, and a served daemon."""

import os
import signal
import subprocess
import threading
import time

import wire

CLK_TCK = os.sysconf("SC_CLK_TCK")


class Timed:
    """Outcome of one child process run to completion."""

    def __init__(self, code, wall_s, cpu_s, maxrss_mb):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_mb = maxrss_mb


def run_timed(argv, out_path, timeout_s=150.0):
    """Runs argv with standard output in `out_path` and standard error in
    `out_path`.err. Wall time runs from spawn to exit; CPU time and peak
    RSS come from the child's rusage."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            # wait4 reaps the child and returns its resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def proc_cpu_s(pid):
    """User + system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """`autotest serve --port 0` as a child; `start_s` is the time from
    spawn to the first OK ping."""

    def __init__(self, argv, timeout_s=120.0):
        self.lines = []
        self._port = None
        self._ready = threading.Event()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()
        try:
            if not self._ready.wait(timeout_s) or self._port is None:
                raise RuntimeError("serve did not start listening: " +
                                   "".join(self.lines[-5:]))
            while True:
                try:
                    code, _, _ = wire.round_trip(
                        self._port, wire.encode_request("ping"))
                    if code == "OK":
                        break
                except OSError:
                    pass
                if time.perf_counter() - t0 > timeout_s:
                    raise RuntimeError("serve never answered ping")
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def _read_stderr(self):
        marker = "listening on 127.0.0.1:"
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            self.lines.append(line)
            if marker in line and self._port is None:
                self._port = int(line.split(marker)[1].split()[0])
                self._ready.set()
        self._ready.set()

    @property
    def port(self):
        return self._port

    def stop(self, timeout_s=15.0):
        """SIGTERM (graceful drain), SIGKILL if it does not exit; returns
        the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout_s)
        self.proc.stderr.close()
        return self.proc.returncode
