package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// profileLayers are the repro/internal packages reported as
// <layer>.cpu_share. Samples charged to any other package count in
// other.cpu_share, so the shares plus runtime.gc_share sum to 1.
var profileLayers = []string{
	"sim", "netem", "h2", "hpack", "replay", "browser", "strategy", "core",
	"metrics", "corpus", "fault", "htmlx", "cssx", "scenario", "page",
}

const (
	repoPrefix   = "repro/internal/"
	takeFrame    = "repro/internal/h2.(*FrameReader).take"
	gcBucket     = "runtime.gc"
	otherBucket  = "other"
	memmoveFrame = "runtime.memmove"
)

// foldProfile folds a CPU profile through `go tool pprof -traces`.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}

// foldTraces reads `go tool pprof -traces` text and charges each sample
// to the innermost repro/internal/<layer> frame on its stack, so
// runtime work (allocation, GC assists, memmove) lands on the layer
// that caused it. A stack with no repository frame is the benchmark's
// own code ("other") when it holds a main. frame, and GC or other
// runtime background work ("runtime.gc") otherwise. It also reports
// the share of memmove under FrameReader.take and of HPACK Huffman
// coding.
func foldTraces(r io.Reader) (map[string]float64, error) {
	var total, memmove, huffman float64
	buckets := map[string]float64{}
	add := func(v float64, frames []string) {
		if len(frames) == 0 {
			return
		}
		total += v
		buckets[bucketOf(frames)] += v
		if frames[0] == memmoveFrame && hasFrame(frames, func(f string) bool { return strings.HasPrefix(f, takeFrame) }) {
			memmove += v
		}
		if hasFrame(frames, func(f string) bool {
			return strings.HasPrefix(f, repoPrefix+"hpack.") && strings.Contains(strings.ToLower(f), "huffman")
		}) {
			huffman += v
		}
	}
	var value float64
	var frames []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			add(value, frames)
			value, frames = 0, nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") || strings.HasSuffix(fields[0], ":") {
			continue // header lines and sample labels
		}
		if frames == nil { // a sample's first line: value, then the leaf
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		frames = append(frames, strings.TrimSuffix(strings.Join(fields, " "), " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	add(value, frames)
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	m := map[string]float64{"runtime.gc_share": 0, "other.cpu_share": 0}
	for _, l := range profileLayers {
		m[l+".cpu_share"] = 0
	}
	for b, v := range buckets {
		switch {
		case b == gcBucket:
			m["runtime.gc_share"] = v / total
		case slices.Contains(profileLayers, b):
			m[b+".cpu_share"] = v / total
		default:
			m["other.cpu_share"] += v / total
		}
	}
	m["h2.take_memmove_share"] = memmove / total
	m["hpack.huffman_share"] = huffman / total
	return m, nil
}

func bucketOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	if hasFrame(frames, func(f string) bool { return strings.HasPrefix(f, "main.") }) {
		return otherBucket
	}
	return gcBucket
}

func hasFrame(frames []string, match func(string) bool) bool {
	for _, f := range frames {
		if match(f) {
			return true
		}
	}
	return false
}
