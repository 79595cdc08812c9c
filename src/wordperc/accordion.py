"""Edge-preserving embedding of a planar oriented rectangle into a thin
slab window.

The map has the form f(x, y) = (x + cL, gamma[y - y0]) where gamma is an
injective diagonal-step path through the window cross-section.  Every
planar edge (x, y) -> (x+2, y +- 1) then lands on a slab edge
(2, +-1, +-1) automatically, because consecutive gamma points differ by
(+-1, +-1).

gamma is a serpentine over the even-v2 columns c of the cross-section:
ascend column c through its even levels with stepping stones on (c+1,
odd levels), turn at (c+1, h-1), descend column c+2, turn at (c+3, 1),
and so on.  Stones and turns are pairwise distinct, so gamma is
injective; its even-class points cover every (v2 even in [-m, m], v3
even) cross-section point, i.e. one full parity class of the seed
columns.

The domain is a rectangle with a two-sided funnel: the full path height
at the source column x = 0, tapering by one path position per side per
column step until only the middle column sweep remains at x = n_p.  The
final column therefore maps inside the right target column R, while the
source column exposes the whole path for seed alignment.

Construction-time checks (normative; the construction itself is not):
injectivity, source hooks into L, target containment in R, and 100%
edge preservation.  Failure of any check raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .oriented import (
    OrientedConfig,
    slab_windows,
    snap_left_column,
    snap_right_column,
)

PlanarVertex = tuple[int, int]
SlabVertex = tuple[int, int, int]


def _serpentine(cols, h):
    """Column-serpentine path through the cross-section; returns the point
    list and, per column, the (first, last) path positions of its sweep."""
    pts: list[tuple[int, int]] = []
    sweeps: list[tuple[int, int, int]] = []
    for i, c in enumerate(cols):
        ascending = i % 2 == 0
        levels = list(range(2, h - 1, 2))
        if not ascending:
            levels.reverse()
        start = len(pts)
        for j, v3 in enumerate(levels):
            pts.append((c, v3))
            if j + 1 < len(levels):
                pts.append((c + 1, (v3 + levels[j + 1]) // 2))
        sweeps.append((start, len(pts) - 1, c))
        if i + 1 < len(cols):
            pts.append((c + 1, h - 1 if ascending else 1))
    return pts, sweeps


@dataclass
class AccordionMap:
    """Verified injective edge-preserving fold into the thin slab window."""

    n: int
    h: int
    m: int = field(init=False)
    c_left: int = field(init=False)
    c_right: int = field(init=False)
    width: int = field(init=False)  # planar x-extent of the domain
    y0: int = field(init=False)
    gamma: tuple = field(init=False)
    terminal: tuple = field(init=False)  # path positions kept at x = width
    report: dict = field(init=False)

    def __post_init__(self):
        n, h = self.n, self.h
        if h < 6 or h % 2:
            raise DomainError("accordion needs even h >= 6")
        if n < h or n % h:
            raise DomainError("accordion needs h | n, n >= h")
        self.m = m = n // h
        self.c_left = snap_left_column(n)
        self.c_right = snap_right_column(n)
        self.width = self.c_right - self.c_left
        if self.width < 2:
            raise DomainError("window too narrow for an accordion")
        # even cross-section columns spanning [-m, m]
        m_even = m if m % 2 == 0 else m - 1
        cols = list(range(-m_even, m_even + 1, 2))
        while cols:
            pts, sweeps = _serpentine(cols, h)
            mid = sweeps[(len(sweeps) - 1) // 2]
            left_cost = 2 * mid[0]
            right_cost = 2 * (len(pts) - 1 - mid[1])
            if left_cost <= self.width and right_cost <= self.width:
                break
            # drop the outermost columns, keeping the sweep list centered
            cols = cols[1:-1] if len(cols) > 2 else cols[:-1]
        if not cols:
            raise DomainError("no feasible serpentine for these parameters")
        self._cols = tuple(cols)
        self.gamma = tuple(pts)
        self.terminal = (mid[0], mid[1])
        self.y0 = (self.c_left // 2) % 2
        self._windows = {}
        for x in range(0, self.width + 1, 2):
            slack = (self.width - x) // 2
            ja = max(0, mid[0] - slack)
            jb = min(len(pts) - 1, mid[1] + slack)
            self._windows[x] = (ja, jb)
        self.report = self._validate()

    # -- mapping -------------------------------------------------------------

    def domain_points(self) -> list[PlanarVertex]:
        out = []
        for x in range(0, self.width + 1, 2):
            ja, jb = self._windows[x]
            want = (x // 2) % 2
            for j in range(ja, jb + 1):
                y = self.y0 + j
                if y % 2 == want % 2:
                    out.append((x, y))
        return out

    def in_domain(self, pt) -> bool:
        x, y = pt
        if x % 2 or not 0 <= x <= self.width:
            return False
        if (y - x // 2) % 2:
            return False
        ja, jb = self._windows[x]
        return ja <= y - self.y0 <= jb

    def map_point(self, pt) -> SlabVertex:
        if not self.in_domain(pt):
            raise DomainError(f"{pt} outside the accordion domain")
        x, y = pt
        v2, v3 = self.gamma[y - self.y0]
        return (x + self.c_left, v2, v3)

    def source_column(self) -> list[PlanarVertex]:
        return [p for p in self.domain_points() if p[0] == 0]

    def target_column(self) -> list[PlanarVertex]:
        return [p for p in self.domain_points() if p[0] == self.width]

    def windows(self):
        return slab_windows(self.n, self.h, self.n / self.h)

    def pull_config(self, slab_cfg: OrientedConfig) -> OrientedConfig:
        """Planar configuration on the domain induced through the map."""
        verts = sorted(self.domain_points())
        bits = np.array(
            [slab_cfg.is_open(self.map_point(v)) for v in verts], dtype=bool
        )
        return OrientedConfig("planar", verts, bits)

    # -- construction checks ---------------------------------------------------

    def _validate(self) -> dict:
        n, h, m = self.n, self.h, self.m
        # path validity: in-window, diagonal steps, distinct
        seen = set()
        for a, b in zip(self.gamma, self.gamma[1:]):
            if abs(a[0] - b[0]) != 1 or abs(a[1] - b[1]) != 1:
                raise DomainError(f"accordion path step {a}->{b} not diagonal")
        for v2, v3 in self.gamma:
            if not (-2 * m < v2 < 2 * m and 0 < v3 < h):
                raise DomainError(f"accordion path leaves the window at {(v2, v3)}")
            if (v2, v3) in seen:
                raise DomainError(f"accordion path revisits {(v2, v3)}")
            seen.add((v2, v3))
        win = self.windows()
        Lset, Rset = set(win.L), set(win.R)
        domain = self.domain_points()
        image = [self.map_point(p) for p in domain]
        if len(set(image)) != len(domain):
            raise DomainError("accordion map is not injective")
        window = win.B_set
        bad = [v for v in image if v not in window]
        if bad:
            raise DomainError(f"accordion image leaves the window at {bad[:3]}")
        # (a) source hooks: the source column must expose seed vertices
        src_img = {self.map_point(p) for p in self.source_column()}
        hooks = src_img & Lset
        if not hooks:
            raise DomainError("accordion source column misses the seed column")
        # (b) target containment
        tgt_img = {self.map_point(p) for p in self.target_column()}
        stray = tgt_img - Rset
        if stray:
            raise DomainError(f"accordion target column leaves R at {sorted(stray)[:3]}")
        # (c) edge preservation, exhaustive
        checked = 0
        for x, y in domain:
            for dy in (-1, 1):
                q = (x + 2, y + dy)
                if self.in_domain(q):
                    u = self.map_point((x, y))
                    v = self.map_point(q)
                    d = (v[0] - u[0], v[1] - u[1], v[2] - u[2])
                    if d[0] != 2 or abs(d[1]) != 1 or abs(d[2]) != 1:
                        raise DomainError(f"edge {(x, y)}->{q} maps to non-edge {d}")
                    checked += 1
        return {
            "n": n,
            "h": h,
            "columns": len(self._cols),
            "path_length": len(self.gamma),
            "domain_size": len(domain),
            "edges_checked": checked,
            "seed_hooks_available": len(hooks),
            "seed_column_size": len(Lset),
            "seed_coverage": len(hooks) / len(Lset),
            "target_column_size": len(Rset),
        }


def accordion_embed(n: int, h: int) -> AccordionMap:
    """Construct and fully check the embedding (checks are the contract)."""
    return AccordionMap(n, h)
