package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one op share Op; the op's
// root span has Parent -1.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// Counters of the direct replay (single goroutine).
	simS  float64
	bytes int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durationsMS lists the durations of the spans with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// layerAgg is one span name's totals.
type layerAgg struct {
	calls      int
	busy, self time.Duration
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// aggregate totals the spans by name.
func (t *tracer) aggregate() map[string]*layerAgg {
	self := selfTimes(t.spans)
	out := map[string]*layerAgg{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &layerAgg{}
			out[s.Name] = a
		}
		a.calls++
		a.busy += s.dur()
		a.self += self[i]
	}
	return out
}

// whereTimeGoes prints, for the ops whose root span satisfies pick, the
// mean self time of every layer as a share of the mean op time.
func (t *tracer) whereTimeGoes(r *result, title string, pick func(root span) bool) {
	self := selfTimes(t.spans)
	// A parent is always opened before its children, so one forward
	// pass resolves every span's root.
	rootOf := make([]int, len(t.spans))
	picked := map[int]bool{}
	var opTotal time.Duration
	for i, s := range t.spans {
		if s.Parent < 0 {
			rootOf[i] = i
			if pick(s) {
				picked[i] = true
				opTotal += s.dur()
			}
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	if len(picked) == 0 {
		return
	}
	bySelf := map[string]time.Duration{}
	for i, s := range t.spans {
		if picked[rootOf[i]] {
			name := s.Name
			if s.Parent < 0 {
				name = "(op, outside any layer)"
			}
			bySelf[name] += self[i]
		}
	}
	names := make([]string, 0, len(bySelf))
	for n := range bySelf {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return bySelf[names[a]] > bySelf[names[b]] })
	n := float64(len(picked))
	r.notef("where the time goes: %s (mean of %d ops, %.3f ms per op)", title, len(picked),
		float64(opTotal)/n/1e6)
	for _, name := range names {
		r.notef("  %-32s %10.4f ms self  %6.2f%%", name, float64(bySelf[name])/n/1e6,
			100*float64(bySelf[name])/float64(opTotal))
	}
}

// write dumps the spans as NDJSON under the checkout's build area.
func (t *tracer) write(cfg config) (string, error) {
	dir, err := cfg.scratchDir("traces")
	if err != nil {
		return "", err
	}
	path := fmt.Sprintf("%s/%s-seed%d.ndjson", dir, cfg.workload, cfg.seed)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerSpec names one per-layer metric and its unit.
type layerSpec struct{ name, unit string }

// perLayer is every per-layer metric, in print order. A traced run
// prints all of them; one its workload does not measure reads 0.
var perLayer = []layerSpec{
	{"sheet.calls", "count"}, {"sheet.busy_ms", "ms"}, {"sheet.ms_per_call", "ms"},
	{"comptest.compile.calls", "count"}, {"comptest.compile.busy_ms", "ms"}, {"comptest.compile.ms_per_call", "ms"},
	{"stand.build.calls", "count"}, {"stand.build.busy_ms", "ms"},
	{"stand.run.calls", "count"}, {"stand.run.busy_ms", "ms"}, {"stand.run.sim_s", "s"},
	{"stand.run.host_us_per_sim_s", "us/s"},
	{"report.encode.calls", "count"}, {"report.encode.busy_ms", "ms"}, {"report.encode.bytes", "bytes"},
	{"comptest.campaign.busy_ms", "ms"}, {"comptest.campaign.self_ms", "ms"},
	{"serve.submit_ms.p50", "ms"}, {"serve.first_line_ms.p50", "ms"}, {"serve.stream_ms.p50", "ms"},
	{"serve.rejected", "count"},
	{"serve.queue_wait_s.p50", "s"}, {"serve.queue_wait_s.p95", "s"}, {"serve.unit_s.p50", "s"},
	{"serve.cache_hits", "count"}, {"serve.cache_misses", "count"}, {"serve.cache_hit_ratio", "ratio"},
	{"dist.shard_roundtrip_s.p50", "s"}, {"dist.shard_roundtrip_s.p95", "s"},
	{"dist.shards_completed", "count"}, {"dist.shards_local", "count"}, {"dist.shards_requeued", "count"},
	{"dist.shards_stolen", "count"}, {"dist.requeue_ratio", "ratio"},
	{"dist.merger_pending_max", "lines"},
	{"dist.journal_records_per_job", "count"}, {"dist.journal_bytes_per_job", "bytes"},
	{"dist.trace_fetch_ms.p50", "ms"},
	{"mutation.busy_ms", "ms"}, {"mutation.mutants", "count"}, {"mutation.units_run", "count"},
	{"mutation.units_skipped", "count"}, {"mutation.runs_per_decided_mutant", "ratio"},
	{"explore.busy_ms", "ms"}, {"explore.candidates", "count"}, {"explore.executions", "count"},
	{"explore.corpus", "count"}, {"explore.coverage_keys", "count"}, {"explore.executions_per_candidate", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// putLayer records one span name's calls, busy_ms, ms_per_call and
// self_ms into r.layers; only the names perLayer lists are reported.
func putLayer(r *result, agg map[string]*layerAgg, name string) {
	a := agg[name]
	if a == nil {
		a = &layerAgg{}
	}
	busy := float64(a.busy) / 1e6
	r.layers[name+".calls"] = float64(a.calls)
	r.layers[name+".busy_ms"] = busy
	r.layers[name+".ms_per_call"] = ratio(busy, float64(a.calls))
	r.layers[name+".self_ms"] = float64(a.self) / 1e6
}
