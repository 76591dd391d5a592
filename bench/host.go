package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host line every results file carries: numbers from two
// files compare only when these agree.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	Commit     string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q llc=%dMiB commit=%s",
		h.NumCPU, h.GoMaxProcs, h.GoVersion, h.CPUModel, h.LLCBytes>>20, h.Commit)
}

func probeHost(root string) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs; 0
// when the host does not expose it.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	bestLevel := -1
	for _, d := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || level <= bestLevel {
			continue
		}
		if size := parseSize(readTrim(filepath.Join(d, "size"))); size > 0 {
			best, bestLevel = size, level
		}
	}
	return best
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize decodes sysfs cache sizes such as "4096K" or "260M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// memAvailable reads MemAvailable from /proc/meminfo in bytes; 0 when
// unknown.
func memAvailable() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemAvailable:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// gitCommit resolves HEAD by reading .git directly (no exec, nothing
// outside the checkout); a checkout that is not a repository reports
// "unknown".
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = readTrim(filepath.Join(root, ".git", ref))
	}
	if len(head) < 12 {
		return "unknown"
	}
	return head[:12]
}
