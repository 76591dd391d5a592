// Package swio is SunwayLB's I/O layer (§IV-B): checkpoint/restart with
// integrity validation ("a checkpoint and restart controller which enables
// fast recover from system-level or hardware fault") and group I/O, where
// ranks are organised into groups whose leaders aggregate and write data
// (the pattern used on the real machine to avoid overwhelming the global
// file system with 160000 writers).
//
// Checkpoints are written in a record-checksummed format (one CRC32-C per
// header/flags/populations record) so corruption is detected before the
// corrupted record is interpreted, published atomically (temp file +
// rename) and re-readable with allocation bombs rejected. Every
// corruption failure wraps ErrCorrupt, which is what the self-healing
// supervisor in internal/psolve keys its rollback on.
package swio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"sunwaylb/internal/core"
	"sunwaylb/internal/lattice"
)

// Checkpoint magics: "SWLB" + version tag. V2 checksums each record
// (header, flags, populations) separately with CRC32-C, so a flipped bit
// is caught before the record it lives in is interpreted. V1, with one
// trailing CRC64 over the whole file, is retired: the reader names it and
// refuses it.
const (
	checkpointMagicV1 = 0x53574c42_43504b31 // "SWLB" "CPK1"
	checkpointMagicV2 = 0x53574c42_43504b32 // "SWLB" "CPK2"
)

// ErrCorrupt marks a checkpoint that failed integrity validation (bad
// magic, truncation, or a CRC mismatch). Test with errors.Is.
var ErrCorrupt = errors.New("checkpoint corrupt")

// ErrRetiredFormat marks a checkpoint in the retired V1 format. It wraps
// ErrCorrupt: no reader of this version restores it.
var ErrRetiredFormat = fmt.Errorf("swio: checkpoint in the retired V1 format (whole-file CRC64), no longer read: %w", ErrCorrupt)

// crc32c is the Castagnoli polynomial (hardware-accelerated on most CPUs).
var crc32c = crc32.MakeTable(crc32.Castagnoli)

// corruptf builds an ErrCorrupt-wrapping error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("swio: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// WriteCheckpoint serialises the full solver state — dimensions, step
// count, relaxation parameters, cell flags and the current populations —
// in the V2 record-checksummed format. Populations are written in the
// natural layout (population i of cell idx at i*N+idx) whatever the
// lattice's storage scheme and phase, so an AA lattice checkpointed at an
// odd step restores to the same logical state.
func WriteCheckpoint(w io.Writer, l *core.Lattice) error {
	bw := bufio.NewWriter(w)

	// Header record: magic + 10 parameter words + CRC32-C.
	crc := crc32.New(crc32c)
	mw := io.MultiWriter(bw, crc)
	head := []uint64{
		checkpointMagicV2,
		uint64(l.NX), uint64(l.NY), uint64(l.NZ),
		uint64(l.Desc.Q),
		uint64(l.Step()),
		math.Float64bits(l.Tau),
		math.Float64bits(l.Smagorinsky),
		math.Float64bits(l.Force[0]),
		math.Float64bits(l.Force[1]),
		math.Float64bits(l.Force[2]),
	}
	for _, v := range head {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("swio: writing checkpoint header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("swio: writing checkpoint header CRC: %w", err)
	}

	// Flags record: the full allocated extent (halo walls matter for
	// restart) + CRC32-C.
	crc.Reset()
	mw = io.MultiWriter(bw, crc)
	flags := make([]byte, l.N)
	for i, f := range l.Flags {
		flags[i] = byte(f)
	}
	if _, err := mw.Write(flags); err != nil {
		return fmt.Errorf("swio: writing checkpoint flags: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("swio: writing checkpoint flags CRC: %w", err)
	}

	// Populations record: the logical populations, one z-row at a time,
	// + CRC32-C.
	crc.Reset()
	mw = io.MultiWriter(bw, crc)
	row := make([]float64, l.AZ)
	buf := make([]byte, 8*l.AZ)
	for i := 0; i < l.Desc.Q; i++ {
		for ay := 0; ay < l.AY; ay++ {
			for ax := 0; ax < l.AX; ax++ {
				l.LinePopulation(l.ZLine(ax, ay), i, row)
				for k, v := range row {
					binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(v))
				}
				if _, err := mw.Write(buf); err != nil {
					return fmt.Errorf("swio: writing checkpoint populations: %w", err)
				}
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("swio: writing checkpoint populations CRC: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("swio: flushing checkpoint: %w", err)
	}
	return nil
}

// DefaultCheckpointLimit bounds how much memory ReadCheckpoint will
// allocate based on a checkpoint header before the CRC has been verified:
// a corrupted dimension field must fail cleanly instead of exhausting
// memory (found by FuzzReadCheckpoint). Restart passes the actual file
// size instead, which is exact.
const DefaultCheckpointLimit = 4 << 30

// ReadCheckpoint reconstructs a lattice from a checkpoint, validating the
// magic number and record checksums. The returned lattice resumes at the
// recorded step count. Corruption of any kind yields an error wrapping
// ErrCorrupt — never a panic, never a silently wrong lattice.
func ReadCheckpoint(r io.Reader) (*core.Lattice, error) {
	return ReadCheckpointLimit(r, DefaultCheckpointLimit)
}

// ReadCheckpointLimit is ReadCheckpoint with an explicit upper bound on
// the serialized size the header may claim. It reads the V2 (per-record
// CRC32-C) format; a V1 file fails with ErrRetiredFormat.
func ReadCheckpointLimit(r io.Reader, maxBytes int64) (*core.Lattice, error) {
	br := bufio.NewReader(r)
	var magic uint64
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, corruptf("reading checkpoint magic: %v", err)
	}
	switch magic {
	case checkpointMagicV1:
		return nil, ErrRetiredFormat
	case checkpointMagicV2:
		return readV2(br, maxBytes)
	}
	return nil, corruptf("bad checkpoint magic %#x", magic)
}

// checkDims validates header-claimed dimensions against the size budget
// before anything is allocated.
func checkDims(nx, ny, nz, q int, maxBytes int64) error {
	if q != lattice.D3Q19.Q {
		return corruptf("checkpoint uses Q=%d, only D3Q19 supported", q)
	}
	if nx < 1 || ny < 1 || nz < 1 {
		return corruptf("checkpoint claims invalid dimensions %d×%d×%d", nx, ny, nz)
	}
	alloc := int64(nx+2) * int64(ny+2) * int64(nz+2)
	need := 11*8 + 3*4 + alloc + alloc*int64(q)*8 // framing: header words, three CRCs
	if alloc <= 0 || need <= 0 || need > maxBytes {
		return corruptf("checkpoint claims %d×%d×%d (%d bytes), above the %d-byte limit (corrupt header?)",
			nx, ny, nz, need, maxBytes)
	}
	return nil
}

// buildLattice materialises a lattice from decoded header words
// (indexed as in the on-disk layout, magic excluded).
func buildLattice(head []uint64) (*core.Lattice, error) {
	nx, ny, nz := int(head[0]), int(head[1]), int(head[2])
	tau := math.Float64frombits(head[5])
	l, err := core.NewLattice(&lattice.D3Q19, nx, ny, nz, tau)
	if err != nil {
		return nil, fmt.Errorf("swio: rebuilding lattice: %w", err)
	}
	l.Smagorinsky = math.Float64frombits(head[6])
	l.Force = [3]float64{
		math.Float64frombits(head[7]),
		math.Float64frombits(head[8]),
		math.Float64frombits(head[9]),
	}
	return l, nil
}

// readRecordCRC verifies one record's trailing CRC32-C.
func readRecordCRC(br *bufio.Reader, crc hash.Hash32, record string) error {
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return corruptf("reading checkpoint %s CRC: %v", record, err)
	}
	if stored != crc.Sum32() {
		return corruptf("checkpoint %s CRC mismatch: stored %#x computed %#x", record, stored, crc.Sum32())
	}
	return nil
}

// readV2 decodes the record-checksummed format. The header CRC is
// verified before the dimensions it claims are used to allocate, so a
// flipped header bit can never trigger a bogus allocation.
func readV2(br *bufio.Reader, maxBytes int64) (*core.Lattice, error) {
	crc := crc32.New(crc32c)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], checkpointMagicV2)
	crc.Write(b8[:])
	tr := io.TeeReader(br, crc)

	head := make([]uint64, 10)
	for i := range head {
		if err := binary.Read(tr, binary.LittleEndian, &head[i]); err != nil {
			return nil, corruptf("reading checkpoint header: %v", err)
		}
	}
	if err := readRecordCRC(br, crc, "header"); err != nil {
		return nil, err
	}
	nx, ny, nz, q := int(head[0]), int(head[1]), int(head[2]), int(head[3])
	if err := checkDims(nx, ny, nz, q, maxBytes); err != nil {
		return nil, err
	}
	l, err := buildLattice(head)
	if err != nil {
		return nil, err
	}

	crc.Reset()
	tr = io.TeeReader(br, crc)
	flags := make([]byte, l.N)
	if _, err := io.ReadFull(tr, flags); err != nil {
		return nil, corruptf("reading checkpoint flags: %v", err)
	}
	if err := readRecordCRC(br, crc, "flags"); err != nil {
		return nil, err
	}
	for i, f := range flags {
		l.Flags[i] = core.CellType(f)
	}

	crc.Reset()
	tr = io.TeeReader(br, crc)
	src := l.Src()
	buf := make([]byte, 8)
	for i := range src {
		if _, err := io.ReadFull(tr, buf); err != nil {
			return nil, corruptf("reading checkpoint populations: %v", err)
		}
		src[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	if err := readRecordCRC(br, crc, "populations"); err != nil {
		return nil, err
	}
	l.SetStep(int(head[4]))
	return l, nil
}

// Checkpoint writes the lattice to path atomically (via a temp file +
// rename), so a crash mid-write never corrupts the previous checkpoint.
func Checkpoint(path string, l *core.Lattice) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("swio: creating checkpoint: %w", err)
	}
	if err := WriteCheckpoint(f, l); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("swio: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("swio: publishing checkpoint: %w", err)
	}
	return nil
}

// Restart loads a checkpoint from path, bounding allocations by the
// actual file size so header corruption cannot exhaust memory.
func Restart(path string) (*core.Lattice, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("swio: opening checkpoint: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("swio: checkpoint stat: %w", err)
	}
	return ReadCheckpointLimit(f, st.Size())
}

// GroupPlan organises ranks into I/O groups: each group's leader gathers
// its members' data and performs the file-system access, bounding the
// number of concurrent writers (the "group I/O" option of §IV-B).
type GroupPlan struct {
	Ranks     int
	GroupSize int
}

// NewGroupPlan validates and builds a plan.
func NewGroupPlan(ranks, groupSize int) (GroupPlan, error) {
	if ranks < 1 || groupSize < 1 {
		return GroupPlan{}, fmt.Errorf("swio: invalid group plan %d/%d", ranks, groupSize)
	}
	return GroupPlan{Ranks: ranks, GroupSize: groupSize}, nil
}

// Leader returns the leader rank of the given rank's group.
func (g GroupPlan) Leader(rank int) int { return rank - rank%g.GroupSize }

// IsLeader reports whether the rank performs file-system access.
func (g GroupPlan) IsLeader(rank int) bool { return rank%g.GroupSize == 0 }

// Groups returns the number of groups (= concurrent writers).
func (g GroupPlan) Groups() int { return (g.Ranks + g.GroupSize - 1) / g.GroupSize }

// Members lists the ranks in the group led by leader.
func (g GroupPlan) Members(leader int) []int {
	var out []int
	for r := leader; r < leader+g.GroupSize && r < g.Ranks; r++ {
		out = append(out, r)
	}
	return out
}
