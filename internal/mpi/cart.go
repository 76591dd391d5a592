package mpi

import "fmt"

// Cart2D is a 2-D Cartesian process grid over a communicator, matching the
// paper's xy domain decomposition: each rank owns a cuboid subdomain with
// the full z extent and communicates with up to 8 neighbours.
type Cart2D struct {
	Comm   *Comm
	PX, PY int
	// PeriodicX, PeriodicY control whether neighbour lookups wrap.
	PeriodicX, PeriodicY bool
}

// NewCart2D builds the process grid; px·py must equal the world size.
func NewCart2D(c *Comm, px, py int, periodicX, periodicY bool) (*Cart2D, error) {
	if px < 1 || py < 1 || px*py != c.Size() {
		return nil, fmt.Errorf("mpi: cart %d×%d does not match world size %d", px, py, c.Size())
	}
	return &Cart2D{Comm: c, PX: px, PY: py, PeriodicX: periodicX, PeriodicY: periodicY}, nil
}

// Coords returns this rank's grid coordinates (row-major: rank = y·PX+x).
func (g *Cart2D) Coords() (x, y int) {
	return g.Comm.Rank() % g.PX, g.Comm.Rank() / g.PX
}

// RankAt returns the rank at grid position (x, y), or −1 if the position
// is outside a non-periodic boundary.
func (g *Cart2D) RankAt(x, y int) int {
	if g.PeriodicX {
		x = ((x % g.PX) + g.PX) % g.PX
	} else if x < 0 || x >= g.PX {
		return -1
	}
	if g.PeriodicY {
		y = ((y % g.PY) + g.PY) % g.PY
	} else if y < 0 || y >= g.PY {
		return -1
	}
	return y*g.PX + x
}

// Neighbor returns the rank offset by (dx, dy) from this rank, or −1.
func (g *Cart2D) Neighbor(dx, dy int) int {
	x, y := g.Coords()
	return g.RankAt(x+dx, y+dy)
}

// FactorGrid chooses px, py with px·py = n minimising the halo surface for
// a global nx×ny domain (the perimeter-to-area heuristic used when the
// user does not specify a process grid).
func FactorGrid(n, nx, ny int) (px, py int) {
	bestCost := -1.0
	for p := 1; p <= n; p++ {
		if n%p != 0 {
			continue
		}
		q := n / p
		// Per-rank halo perimeter: 2·(nx/p + ny/q), ignoring constants.
		cost := float64(nx)/float64(p) + float64(ny)/float64(q)
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			px, py = p, q
		}
	}
	return px, py
}
