"""Synthetic models of the paper's three applications.

The paper traced FFT, SIMPLE and WEATHER (Epex/Fortran, SPMD) on an IBM
S/370 via PSIMUL.  Those traces are not available; these modules build
:class:`~repro.trace.program.Program` objects with the same *structure*
— the property the paper's measurements actually depend on:

- **FFT** — few, large, perfectly balanced parallel loops (128-way);
  tiny arrival spread A, enormous inter-barrier interval E, ~0.2 %
  synchronization references.
- **SIMPLE** — 20 parallel loops of mixed sizes plus 5 serial sections;
  uneven iteration counts and lengths; ~5 % synchronization references.
- **WEATHER** — parallel loops over a 108 x 72 grid whose extents are
  not multiples of 64, forcing many processors to idle at barriers;
  ~8 % synchronization references.

Each builder accepts a ``scale`` knob so tests can run miniature
versions of the same structure.
"""

from repro.trace.apps.fft import build_fft
from repro.trace.apps.simple import build_simple
from repro.trace.apps.weather import build_weather

APP_BUILDERS = {
    "FFT": build_fft,
    "SIMPLE": build_simple,
    "WEATHER": build_weather,
}


def build_app(name: str, scale: float = 1.0, block_bytes: int = 16):
    """Build an application program by name at the given scale.

    ``scale`` shrinks the problem uniformly (FFT's problem size, the
    other apps' loop counts and body lengths) while preserving the
    structure the experiments depend on.
    """
    key = name.upper()
    if key not in APP_BUILDERS:
        raise KeyError(f"unknown application {name!r}; have FFT, SIMPLE, WEATHER")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if key == "FFT":
        problem_size = max(int(128 * scale), 4)
        return build_fft(problem_size=problem_size, block_bytes=block_bytes)
    return APP_BUILDERS[key](scale=scale, block_bytes=block_bytes)


__all__ = [
    "build_fft",
    "build_simple",
    "build_weather",
    "build_app",
    "APP_BUILDERS",
]
