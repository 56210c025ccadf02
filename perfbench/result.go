package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opResult is what one op reports back to the loop: its own wall time
// (the system's work, excluding the benchmark's output checks), whether
// every output matched the reference, and the stand runs and simulated
// seconds it executed.
type opResult struct {
	dur   time.Duration
	ok    bool
	units int
	simS  float64
	// aside is benchmark-side work inside the op call that is not part
	// of the op (the traced direct replay); it is taken off the phase
	// clock. Only single-client workloads use it.
	aside time.Duration
}

// phase is the record of one measured window.
type phase struct {
	attempted, failed int
	opMS              []float64
	opN               []int // op number of each opMS sample
	first, block      int   // op numbering start; ops per p95 block
	units             int
	simS              float64
	elapsed           time.Duration
}

// loop runs op in `clients` closed loops — each client issues its next
// op only after the previous one completed — until the window closes.
// Ops in flight at the deadline run to completion and are counted; the
// phase's elapsed time ends with the last of them. n numbers ops across
// clients in issue order from first, so a workload can deal inputs from
// one deck; phases of one run start at different firsts so that no
// input repeats across them. deck is how many consecutive op numbers
// hold the workload's whole input mix once.
func loop(window time.Duration, clients, deck, first int, op func(client, n int) opResult) phase {
	var (
		mu    sync.Mutex
		aside time.Duration
		p     = phase{first: first, block: blockOps(deck)}
		next  atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := first + int(next.Add(1)-1)
				r := op(c, n)
				mu.Lock()
				p.attempted++
				aside += r.aside
				if r.ok {
					p.opMS = append(p.opMS, float64(r.dur)/float64(time.Millisecond))
					p.opN = append(p.opN, n)
					p.units += r.units
					p.simS += r.simS
				} else {
					p.failed++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start) - aside
	return p
}

// setupReps is how many times each batch repeats the set-up. Every
// workload times two batches: one before the untraced window, whose
// last set-up serves the window, and one right after it. The reported
// setup_s is the median of both batches. A set-up takes microseconds
// to milliseconds (the fleet's are mostly cross-thread hand-offs), and
// its cost follows the host's load of the moment, so the run samples
// it at two moments a window apart.
const setupReps = 51

// timeSetups runs build setupReps times, records the wall time of
// each run in r.setupS and returns what the last one built. release,
// if not nil, frees what one build made before the next starts; it is
// not timed. Every build starts from a collected heap, with the freed
// pages already returned to the OS: the garbage of the reference
// computation, of the window and of the previous build is not set-up
// work, and a GC cycle or background scavenging left over from it
// would otherwise slow whichever build it overlaps.
func timeSetups[T any](r *result, build func() (T, error), release func(T)) (T, error) {
	var last T
	debug.FreeOSMemory()
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 && release != nil {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		last = v
	}
	return last, nil
}

// retimeSetups is the batch after the window: it times build like
// timeSetups and releases everything it built.
func retimeSetups[T any](r *result, build func() (T, error), release func(T)) error {
	last, err := timeSetups(r, build, release)
	if err == nil && release != nil {
		release(last)
	}
	return err
}

// minBlockOps is the fewest ops one p95 block holds.
const minBlockOps = 16

// blockOps is the p95 block size: the smallest whole number of decks
// holding at least minBlockOps ops.
func blockOps(deck int) int {
	return (minBlockOps + deck - 1) / deck * deck
}

// tracedFirst numbers the traced window's ops after the untraced ones.
const tracedFirst = 1 << 24

func (p phase) opsPerS() float64 { return float64(len(p.opMS)) / p.elapsed.Seconds() }

// blockP95s splits the window's ops by op number into consecutive
// blocks of p.block and returns the op-time 95th percentile of each
// complete block. A block is a whole number of decks, so every block
// holds the same input mix.
func (p phase) blockP95s() []float64 {
	blocks := map[int][]float64{}
	for i, n := range p.opN {
		b := (n - p.first) / p.block
		blocks[b] = append(blocks[b], p.opMS[i])
	}
	var out []float64
	for _, ms := range blocks {
		if len(ms) == p.block {
			out = append(out, quantile(ms, 0.95))
		}
	}
	return out
}

// p95 is op_ms.p95: the median of the blocks' 95th percentiles, so a
// burst of host interference moves only the blocks it overlaps rather
// than the tail of the whole window. With no complete block it is the
// whole window's 95th percentile.
func (p phase) p95() float64 {
	if b := p.blockP95s(); len(b) > 0 {
		return median(b)
	}
	return quantile(p.opMS, 0.95)
}

// result is everything a workload measured.
type result struct {
	setupS []float64 // one entry per set-up repetition
	main   phase     // the untraced window
	traced *phase    // the traced window (trace mode only)
	layers map[string]float64
	notes  []string // human-readable lines printed before the result
	rssMB  float64
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// quantile is the linear-interpolation quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// shares renders counts as "key share (count/n)" pairs in key order.
func shares(counts map[string]int, n int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%d ops;", n)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s %.4f (%d/%d)", k, ratio(float64(counts[k]), float64(n)), counts[k], n)
	}
	return b.String()
}

// ratio is num/den with its base kept for printing.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd computes the end-to-end metrics of the untraced window.
func (r *result) endToEnd() map[string]metric {
	p := r.main
	sec := p.elapsed.Seconds()
	return map[string]metric{
		"ops_per_s":        {p.opsPerS(), "1/s"},
		"op_ms.p50":        {quantile(p.opMS, 0.50), "ms"},
		"op_ms.p95":        {p.p95(), "ms"},
		"units_per_s":      {float64(p.units) / sec, "1/s"},
		"sim_s_per_host_s": {p.simS / sec, "s/s"},
		"ok_ratio":         {1 - ratio(float64(p.failed), float64(p.attempted)), "ratio"},
		"setup_s":          {median(r.setupS), "s"},
		"max_rss_mb":       {r.rssMB, "MB"},
	}
}

var endToEndOrder = []string{"ops_per_s", "op_ms.p50", "op_ms.p95", "units_per_s",
	"sim_s_per_host_s", "ok_ratio", "setup_s", "max_rss_mb"}

// print writes the human-readable report and, last, the result line.
func (r *result) print(cfg config) {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	p := r.main
	fmt.Printf("window %.3f s: %d ops attempted, %d failed, fail_ratio %.6f (= %d/%d), %d op-time samples\n",
		p.elapsed.Seconds(), p.attempted, p.failed,
		ratio(float64(p.failed), float64(p.attempted)), p.failed, p.attempted, len(p.opMS))
	fmt.Printf("op_ms.p95 is the median over %d complete blocks of %d ops (whole-window p95 %.6f ms)\n",
		len(p.blockP95s()), p.block, quantile(p.opMS, 0.95))
	fmt.Printf("set-up repetitions (s): %v\n", r.setupS)
	e2e := r.endToEnd()
	for _, name := range endToEndOrder {
		m := e2e[name]
		fmt.Printf("  %-18s %14.6f %s\n", name, m.Value, m.Unit)
	}
	metrics := map[string]metric{}
	attempted, failed := p.attempted, p.failed
	if cfg.trace {
		t := r.traced
		attempted += t.attempted
		failed += t.failed
		r.layers["trace.overhead_ratio"] = ratio(p.opsPerS(), t.opsPerS())
		fmt.Printf("traced window %.3f s: %d ops attempted, %d failed, %.4f ops/s (untraced %.4f ops/s)\n",
			t.elapsed.Seconds(), t.attempted, t.failed, t.opsPerS(), p.opsPerS())
		fmt.Println("per-layer metrics (traced window):")
		for _, l := range perLayer {
			v, ok := r.layers[l.name]
			note := ""
			if !ok {
				note = "  (not measured on this workload)"
			}
			fmt.Printf("  %-36s %16.6f %s%s\n", l.name, v, l.unit, note)
			metrics[l.name] = metric{finite(v), l.unit}
		}
	} else {
		for name, m := range e2e {
			metrics[name] = metric{finite(m.Value), m.Unit}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics}
	fmt.Println(mustJSON(out))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
