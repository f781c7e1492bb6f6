"""The bounds and choices the command line states in its help text.

Each is defined here once, apart from the module that enforces it, so that
building the argument parser loads none of those modules. ``engine``,
``importance`` and ``simulate`` re-export their own.
"""

# the largest count a quantile or equidistant grid may ask for, and the most
# points a grid may list; an axis allocates about count + 1 floats before
# duplicate points collapse
MAX_GRID_COUNT = 1_000_000

# the flatness measures: sample sd, median absolute deviation, range / 4
MEASURES = ("sd", "mad", "range4")

# the most rows a simulation may ask for; a Friedman dataset of this many
# rows holds 11 float64 columns, 0.88 GB
MAX_SIMULATION_ROWS = 10_000_000
