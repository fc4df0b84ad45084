"""How fast the machine runs right now, from fixed reference kernels.

The benchmark runs on a share of a host whose other tenants come and go:
the same job can run 35 % slower for ten seconds to a minute at a time.
Such phases are longer than one job and about as long as one run, so a
median over a run does not remove them; between runs they move the median
of the same code by 20 % and more. The benchmark therefore times a fixed
reference kernel before the first job and after every job, and scales the
job's times by reference time over measured time (`Probe.scale`); an item
inside a job uses the kernel time interpolated to when it ran. A timing
metric then reads as the time the job would take on a machine that runs
the kernel in its reference time. A change to the program moves the job's
time and not the kernel's, so it moves the metric in full.

The kernels use numpy and scipy only, never kftser, and take fixed inputs,
so no change to the program can move them. Each mirrors the instruction
mix of one part of the program, and each workload runs the mix of parts
its layers spend their time in (`Workload.speed_mix`, `Workload.setup_mix`):

- `kalman`: a 4-state filter recursion over one 302-frame trajectory, in a
  Python loop of 4 x 4 matrix products, a Cholesky solve and a clamp.
- `signal`: 2 s of noise resampled from 48 kHz to 22,050 Hz by a
  polyphase FIR, then per-frame FFT, 40-band mel energies, log and DCT.
- `mlp`: 16 mini-batches of 64 rows through a 41-256-128-4 ReLU network,
  forward, backward and an Adam update.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.fft import dct
from scipy.linalg import cho_factor, cho_solve
from scipy.signal import firwin, resample_poly

# Median seconds of one unit of each part, measured once on a 2-vCPU
# Haswell-class VM. They only fix the scale of the metrics: any constants
# would do, as long as they stay the same from one commit to the next.
REFERENCE_S = {"kalman": 0.019, "signal": 0.013, "mlp": 0.021}


class Probe:
    """Runs `mix`, a tuple of (part, units), and turns its time into a scale."""

    def __init__(self, mix):
        self.mix = tuple(mix)
        self.reference_s = sum(REFERENCE_S[part] * units for part, units in self.mix)
        rng = np.random.default_rng(20260118)
        self._z = rng.dirichlet(np.ones(4), size=302)
        self._audio = rng.standard_normal(2 * 48000)
        up, down = 147, 320
        self._updown = (up, down)
        self._fir = firwin(64 * down + 1, 1.0 / down, window=("kaiser", 8.6)) * up
        self._mel = np.abs(rng.standard_normal((40, 1025)))
        self._window = np.hanning(2048)
        dims = (41, 256, 128, 4)
        self._w = [rng.standard_normal((a, b)) * math.sqrt(2.0 / a)
                   for a, b in zip(dims[:-1], dims[1:])]
        self._b = [np.zeros(b) for b in dims[1:]]
        self._rows = rng.standard_normal((16 * 64, 41))
        self._labels = rng.integers(0, 4, size=16 * 64)
        self.parts = {"kalman": self._kalman, "signal": self._signal, "mlp": self._mlp}
        for part, _ in self.mix:  # first calls load code and start BLAS threads
            self.parts[part]()

    def measure(self) -> float:
        """Run the mix once; return its time in seconds."""
        t0 = perf_counter()
        for part, units in self.mix:
            for _ in range(units):
                self.parts[part]()
        return perf_counter() - t0

    def scale(self, before: float, after: float, at: float = 0.5) -> float:
        """Factor for work timed between two measurements. `at` is where the
        work ran, from 0 (right after `before`) to 1 (right before `after`);
        the kernel's time there is interpolated."""
        return self.reference_s / (before + at * (after - before))

    def _kalman(self) -> None:
        eye = np.eye(4)
        q, r = 1e-3 * eye, 0.1 * eye
        x, p = np.full(4, 0.25), eye.copy()
        for z in self._z:
            p = p + q
            p = 0.5 * (p + p.T)
            gain = cho_solve(cho_factor(p + r, lower=True), p.T).T
            x = x + gain @ (z - x)
            p = (eye - gain) @ p
            x = np.clip(x, 0.0, 1.0)
            x = x / x.sum()

    def _signal(self) -> None:
        up, down = self._updown
        y = resample_poly(self._audio, up, down, window=self._fir)
        for start in range(0, len(y) - 2048 + 1, 512):
            spectrum = np.abs(np.fft.rfft(y[start:start + 2048] * self._window)) ** 2
            dct(np.log(self._mel @ spectrum + 1e-10), type=2, norm="ortho")[:13]

    def _mlp(self) -> None:
        ws, bs = list(self._w), self._b
        m = [np.zeros_like(w) for w in ws]
        v = [np.zeros_like(w) for w in ws]
        for k in range(16):
            x = self._rows[64 * k:64 * (k + 1)]
            y = self._labels[64 * k:64 * (k + 1)]
            acts = [x]
            for i, (w, b) in enumerate(zip(ws, bs)):
                h = acts[-1] @ w + b
                acts.append(np.maximum(h, 0.0) if i < len(ws) - 1 else h)
            logits = acts[-1] - acts[-1].max(axis=1, keepdims=True)
            delta = np.exp(logits)
            delta /= delta.sum(axis=1, keepdims=True)
            delta[np.arange(len(y)), y] -= 1.0
            for i in range(len(ws) - 1, -1, -1):
                grad = acts[i].T @ delta / len(y)
                if i:
                    delta = (delta @ ws[i].T) * (acts[i] > 0.0)
                m[i] = 0.9 * m[i] + 0.1 * grad
                v[i] = 0.999 * v[i] + 0.001 * grad * grad
                ws[i] = ws[i] - 1e-6 * m[i] / (np.sqrt(v[i]) + 1e-8)
