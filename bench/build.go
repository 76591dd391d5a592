package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// buildDirName holds everything the benchmark writes: the Go build
// cache, the user binaries, the cached reference hashes, per-run scratch,
// results and span files. It sits in the checkout and is git-ignored.
const buildDirName = ".bench_build"

// findRoot walks up from the working directory to the checkout root: the
// directory holding BENCHMARK.json. `go run -C bench .` starts in bench/,
// the driver's command starts in the root itself.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it: run from the checkout")
		}
		dir = parent
	}
}

// binaries are the two user programs every end-to-end number is taken
// through.
type binaries struct {
	sunwaylb, lbmserve string
}

// referenceFile caches the in-process reference hashes of the CLI
// workloads; like the binaries it is derived from the sources only.
const referenceFile = "reference-hashes.json"

// ensureBinaries builds cmd/sunwaylb and cmd/lbmserve into the build
// directory unless binaries newer than every source file are already
// there. The Go build cache is kept inside the checkout as well.
func ensureBinaries(root string) (binaries, error) {
	out := filepath.Join(root, buildDirName)
	bins := binaries{
		sunwaylb: filepath.Join(out, "bin", "sunwaylb"),
		lbmserve: filepath.Join(out, "bin", "lbmserve"),
	}
	newest, err := newestSource(root)
	if err != nil {
		return bins, err
	}
	if builtAfter(bins.sunwaylb, newest) && builtAfter(bins.lbmserve, newest) {
		return bins, nil
	}
	for _, dir := range []string{"bin", "tmp"} {
		if err := os.MkdirAll(filepath.Join(out, dir), 0o755); err != nil {
			return bins, err
		}
	}
	for pkg, bin := range map[string]string{"./cmd/sunwaylb": bins.sunwaylb, "./cmd/lbmserve": bins.lbmserve} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(out, "gocache"), "GOTMPDIR="+filepath.Join(out, "tmp"), "GOTOOLCHAIN=local")
		if msg, err := cmd.CombinedOutput(); err != nil {
			return bins, fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
		}
	}
	if err := os.Remove(filepath.Join(out, referenceFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return bins, err
	}
	return bins, nil
}

// newestSource returns the latest modification time among the module's
// build inputs (go.mod plus every .go/.s file under cmd/ and internal/).
func newestSource(root string) (time.Time, error) {
	st, err := os.Stat(filepath.Join(root, "go.mod"))
	if err != nil {
		return time.Time{}, fmt.Errorf("checkout has no go.mod to build from: %w", err)
	}
	newest := st.ModTime()
	for _, sub := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s")) {
				return nil
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			if info.ModTime().After(newest) {
				newest = info.ModTime()
			}
			return nil
		})
		if err != nil {
			return time.Time{}, err
		}
	}
	return newest, nil
}

func builtAfter(bin string, src time.Time) bool {
	st, err := os.Stat(bin)
	return err == nil && st.ModTime().After(src)
}

// scratchDir makes a fresh per-process directory under the build
// directory for child outputs, server data and checkpoints.
func scratchDir(root string) (string, error) {
	base := filepath.Join(root, buildDirName, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
