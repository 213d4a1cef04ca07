package obs

import (
	"math"
	"runtime"
	"time"
)

// Snapshot is a point-in-time copy of every registered metric, shaped for
// JSON export (maps marshal with sorted keys, so snapshots diff cleanly).
// Zero-valued metrics are included: a counter that stayed at zero is
// itself a finding (e.g. "no dense fallbacks happened").
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's state: parallel bounds/counts
// slices (the final count is the overflow bucket past the last bound).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Capture snapshots the default registry. It is safe against concurrent
// updates (individual cells are read atomically; the snapshot is not a
// single consistent cut, which metric exports never need).
func Capture() Snapshot {
	def.mu.Lock()
	defer def.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(def.counters)),
		Gauges:     make(map[string]float64, len(def.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(def.histograms)),
	}
	for name, c := range def.counters {
		s.Counters[name] = c.v.Load()
	}
	for name, g := range def.gauges {
		s.Gauges[name] = math.Float64frombits(g.bits.Load())
	}
	for name, h := range def.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.buckets)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// Manifest identifies the run a snapshot came from: toolchain, machine
// shape, the command and a hash of its full parameter vector, and the
// wall clock per phase. Everything needed to tell two chaos reports or
// metrics snapshots apart months later.
type Manifest struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`

	// Command and ParamsHash pin what ran: the subcommand name and an
	// FNV-64a hash of the full argument vector (flags included), so runs
	// with different parameters never collide silently.
	Command    string `json:"command,omitempty"`
	ParamsHash string `json:"params_hash,omitempty"`

	// Workers is the parallel engine's effective default worker count.
	Workers int `json:"workers,omitempty"`

	// WallSeconds is the total command wall clock; Phases breaks it down
	// (phase names are caller-defined, e.g. one per bench experiment).
	WallSeconds float64            `json:"wall_seconds,omitempty"`
	Phases      map[string]float64 `json:"phases,omitempty"`
}

// NewManifest fills the machine/toolchain fields; the caller owns the
// command, hash, workers, and phase fields.
func NewManifest() Manifest {
	return Manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}
