package psolve

import (
	"slices"
	"time"

	"sunwaylb/internal/boundary"
	"sunwaylb/internal/core"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/trace"
)

// BlockStep is one block's step, the one both worlds run: a psolve rank
// holds one, a patch worker one per owned patch, and StepBlocks advances
// them. It is the paper's on-the-fly scheme (§IV-C-1, Fig. 6(2)).
//
// The block fills its own halo for the next step inside its sweeps: fill
// is the one-rank order (HaloSet) of its global-face conditions and the
// wraps of the axes it wraps itself, which the sweeps read across. The
// strips run its x- and z-face members one y-plane at a time. filled says
// the halo already holds the fill for the coming step; next is the view
// one step ahead that the sweep fills it through. tail lists the allocated
// y-planes no sweep hook finishes.
//
// faces is the block's face plan. Each face is one of: nothing (a global
// face, or an axis the block wraps itself), a Link to a block on another
// worker, or a same-owner block whose halo the face is copied into
// (CopyFace) when the face is posted. flagsDue says the coming step's
// copies carry cell flags, as a new link's first message does: a new plan
// sends them once.
type BlockStep struct {
	Lat *core.Lattice
	c   *mpi.Comm
	tr  *trace.RankTracer

	fill   *boundary.Set
	filled bool
	next   core.Lattice
	wrap   core.Wrap
	// The step's fixed shape: the inner region computed while the x faces
	// travel (empty for blocks too thin to have one) and the boundary
	// strips that finish the interior.
	inner  region
	strips []region
	tail   []int
	// stripDone is the strips' row hook, bound once so a step allocates
	// nothing.
	stripDone func(y int)
	// faceTime is the time the block has spent on its own halo fill;
	// busy the time its last step spent in its own sweeps and fills.
	faceTime, busy time.Duration

	faces    [6]blockFace
	flagsDue bool
}

// blockFace is one face of a block's plan; the zero value is no exchange.
type blockFace struct {
	link   *Link
	copyTo *core.Lattice
}

// region is an x/y sub-block of the interior, x0 ≤ x < x1, y0 ≤ y < y1.
type region struct{ x0, x1, y0, y1 int }

// NewBlockStep builds the step of lattice l on c's rank: its fill is
// HaloSet over the axes wrap marks (periodic with one block along them)
// and the block's global-face conditions conds (FaceConds). The face plan
// starts empty.
func NewBlockStep(c *mpi.Comm, l *core.Lattice, wrap [3]bool, conds []boundary.Condition) *BlockStep {
	b := &BlockStep{Lat: l, c: c, tr: c.Trace(), fill: HaloSet(wrap[0], wrap[1], wrap[2], conds), flagsDue: true}
	b.wrap = b.fill.Wrap()
	if nx, ny := l.NX, l.NY; nx > 2 && ny > 2 {
		// Inner cells are those whose 1-neighbourhood stays inside the
		// interior; the strips are the west and east columns over the full
		// y extent, then the south and north rows between them.
		b.inner = region{1, nx - 1, 1, ny - 1}
		b.strips = []region{{0, 1, 0, ny}, {nx - 1, nx, 0, ny}, {1, nx - 1, 0, 1}, {1, nx - 1, ny - 1, ny}}
		// The hook finishes allocated planes 3…NY−2.
		b.tail = slices.Compact([]int{0, 1, 2, ny - 1, ny, ny + 1})
		b.stripDone = b.fillStrip
	} else {
		b.strips = []region{{0, nx, 0, ny}}
		for ay := 0; ay < l.AY; ay++ {
			b.tail = append(b.tail, ay)
		}
	}
	return b
}

// ResetFaces empties the face plan; the next plan's first step carries
// cell flags on its copies, as its new links do on their first message.
func (b *BlockStep) ResetFaces() {
	b.faces = [6]blockFace{}
	b.flagsDue = true
}

// Link makes face f an exchange with the block across it on rank peer: f
// is sent under sendTag and the peer's opposite face received under
// recvTag.
func (b *BlockStep) Link(f core.Face, peer, sendTag, recvTag int) {
	b.faces[f] = blockFace{link: NewLink(b.Lat, f, peer, sendTag, recvTag)}
}

// CopyTo makes face f a copy into the halo of dst, the same-owner block
// across it.
func (b *BlockStep) CopyTo(f core.Face, dst *core.Lattice) {
	b.faces[f] = blockFace{copyTo: dst}
}

// StepBlocks advances every block one time step. Each phase runs over
// all the blocks before the next starts: the first step's whole fill, the
// z faces posted and collected (only a patch tiling cuts z), then the
// rank's order — post x, the inner sweeps while the x faces travel,
// collect x, post and collect y (whose corners carry the x halo just
// received), the strips and the tail. Every post of a phase precedes
// every receive of it (the transport's sends never block), so the step is
// deadlock-free for every owner map, and no same-owner copy lands on a
// block already swept.
//
// A block's conditions precede the step's exchanges: the first step fills
// the halo whole (applyLocalBCs) and every later one relies on the fill
// the previous step's sweeps left. A face carries only the populations
// that cross it, so an exchange overwrites, in the halo corners a
// condition computed from the block's previous fill, exactly the
// populations the sweep reads there with the neighbour's values.
func StepBlocks(bs ...*BlockStep) {
	for _, phase := range stepPhases {
		for _, b := range bs {
			phase(b)
		}
	}
}

// stepPhases are StepBlocks' phases, in order.
var stepPhases = [...]func(b *BlockStep){
	(*BlockStep).begin,
	func(b *BlockStep) { b.postAxis(2, "halo-z") },
	func(b *BlockStep) { b.collectAxis(2, "halo-z") },
	func(b *BlockStep) { b.postAxis(0, "halo-x") },
	(*BlockStep).sweepInner,
	func(b *BlockStep) { b.collectAxis(0, "halo-x-wait") },
	func(b *BlockStep) { b.postAxis(1, "halo-y") },
	func(b *BlockStep) { b.collectAxis(1, "halo-y") },
	(*BlockStep).finish,
}

// begin opens the block's step: the whole fill on its first, and the
// step-ahead view its sweeps fill the next halo through.
func (b *BlockStep) begin() {
	t := time.Now()
	if !b.filled {
		b.applyLocalBCs()
	}
	b.next = b.Lat.Ahead()
	b.busy = time.Since(t)
}

// applyLocalBCs fills the halos that do not come from neighbours, whole:
// the global-face conditions and the wraps of the axes the block wraps
// itself, whose flags it copies across.
func (b *BlockStep) applyLocalBCs() {
	defer b.tr.Scope(trace.TrackStep, "bc")()
	t := time.Now()
	b.fill.Apply(b.Lat)
	b.faceTime += time.Since(t)
}

// postAxis sends the block's two faces of one axis, plus side first,
// under the given MPI-track span (post). An axis without exchanges opens
// no span.
//
//lbm:hot
func (b *BlockStep) postAxis(axis int, span string) {
	lo, hi := core.Face(2*axis), core.Face(2*axis+1)
	if b.faces[lo] == (blockFace{}) && b.faces[hi] == (blockFace{}) {
		return
	}
	defer b.tr.Scope(trace.TrackMPI, span)()
	b.post(hi)
	b.post(lo)
}

// post sends face f as the plan says: a link packs it straight into its
// send slot and hands it to the transport (sends are eager and never
// block), a copy moves its crossing populations line by line into the
// neighbour's halo.
//
//lbm:hot
func (b *BlockStep) post(f core.Face) {
	switch p := &b.faces[f]; {
	case p.link != nil:
		p.link.Post(b.c, b.Lat)
	case p.copyTo != nil:
		b.Lat.CopyFace(f, p.copyTo, b.flagsDue)
	}
}

// collectAxis receives the faces the linked neighbours posted on this
// axis and unpacks them into the halo; a copied face arrived when its
// neighbour posted. The span is closed by defer so a rank aborted inside
// Recv (a peer died, a face failed its checksum) still nests.
//
//lbm:hot
func (b *BlockStep) collectAxis(axis int, span string) {
	lo, hi := b.faces[2*axis].link, b.faces[2*axis+1].link
	if lo == nil && hi == nil {
		return
	}
	defer b.tr.Scope(trace.TrackMPI, span)()
	if lo != nil {
		lo.Collect(b.c, b.Lat)
	}
	if hi != nil {
		hi.Collect(b.c, b.Lat)
	}
}

// sweepInner sweeps the inner region, which reads no x or y halo, while
// the x faces travel.
func (b *BlockStep) sweepInner() {
	if r := b.inner; r.x1 > r.x0 {
		defer b.tr.Scope(trace.TrackStep, "compute-inner")()
		t := time.Now()
		b.Lat.SweepRows(r.x0, r.x1, r.y0, r.y1, b.wrap, nil)
		b.busy += time.Since(t)
	}
}

// finish closes the block's step once its faces are in: the strips, which
// fill the next halo plane by plane, the tail, and CompleteStep.
func (b *BlockStep) finish() {
	t := time.Now()
	end := b.tr.Scope(trace.TrackStep, "compute-boundary")
	b.sweepStrips()
	end()
	b.fillTail()
	b.Lat.CompleteStep()
	b.filled, b.flagsDue = true, false
	b.busy += time.Since(t)
}

// fillStrip is the hook of the west and east columns, swept together in
// y order after the inner region: once their rows y−2…y are swept,
// allocated plane y (3 ≤ y ≤ NY−2) is final, so its fill runs: its x-
// and z-face conditions in fill order, a wrap filling its edge cells
// alone (core.Lattice.PeriodicEdges).
func (b *BlockStep) fillStrip(y int) {
	if y < 3 || y > b.Lat.NY-2 {
		return
	}
	t := time.Now()
	b.fill.ApplyPlane(&b.next, y)
	b.faceTime += time.Since(t)
}

// sweepStrips sweeps the boundary strips: with an inner region, the west
// and east columns together row by row under fillStrip, then the south
// and north rows; without one, the whole block.
func (b *BlockStep) sweepStrips() {
	l := b.Lat
	if b.stripDone == nil {
		for _, r := range b.strips {
			l.SweepRows(r.x0, r.x1, r.y0, r.y1, b.wrap, nil)
		}
		return
	}
	w, e := b.strips[0], b.strips[1]
	for y := 0; y < l.NY; y++ {
		l.SweepRows(w.x0, w.x1, y, y+1, b.wrap, nil)
		l.SweepRows(e.x0, e.x1, y, y+1, b.wrap, nil)
		b.stripDone(y)
	}
	for _, r := range b.strips[2:] {
		l.SweepRows(r.x0, r.x1, r.y0, r.y1, b.wrap, nil)
	}
}

// fillTail runs, after every sweep, every condition of the fill in order
// on the planes no hook finished, and the y-face conditions whole.
func (b *BlockStep) fillTail() {
	defer b.tr.Scope(trace.TrackStep, "bc")()
	t := time.Now()
	b.fill.ApplyTail(&b.next, b.tail)
	b.faceTime += time.Since(t)
}

// FaceTime is the time the block has spent on its own halo fill: the
// whole fills, the planes its sweeps fill and the tails.
func (b *BlockStep) FaceTime() time.Duration { return b.faceTime }

// Busy is the wall time the block's last step spent in its own sweeps and
// fills, its exchanges left out.
func (b *BlockStep) Busy() time.Duration { return b.busy }
