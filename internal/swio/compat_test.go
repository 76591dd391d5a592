package swio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestReadV1Retired: a checkpoint in the retired V1 format fails with the
// typed error that names the format, and that error wraps ErrCorrupt, so
// the supervisor treats it as any other unreadable checkpoint.
func TestReadV1Retired(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, buildState(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data, checkpointMagicV1)
	_, err := ReadCheckpointLimit(bytes.NewReader(data), int64(len(data)))
	if !errors.Is(err, ErrRetiredFormat) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("V1 checkpoint: error %v, want ErrRetiredFormat wrapping ErrCorrupt", err)
	}
}

// TestWriterEmitsV2: new checkpoints carry the V2 magic — the format
// upgrade is actually in effect, not just supported.
func TestWriterEmitsV2(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, buildState(t)); err != nil {
		t.Fatal(err)
	}
	magic := binary.LittleEndian.Uint64(buf.Bytes()[:8])
	if magic != checkpointMagicV2 {
		t.Errorf("writer magic = %#x, want V2 %#x", magic, uint64(checkpointMagicV2))
	}
}
