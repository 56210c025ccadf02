package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/comptest"
	"repro/comptest/api"
	"repro/comptest/dist"
	"repro/comptest/mutation"
	"repro/comptest/serve"
	"repro/internal/obs"
)

// fleetClients is the number of closed-loop HTTP clients: nproc on the
// reference 2-core container.
const fleetClients = 2

// fleet is the `serve -workers-remote -state-dir` deployment, in
// process: one journaled coordinator sharding one unit per shard, and
// two one-slot workers registered with it over HTTP.
type fleet struct {
	dir     string
	coord   *dist.Coordinator
	srv     *httptest.Server
	workers []*dist.Worker
	client  *http.Client
}

func startFleet(base string) (*fleet, error) {
	dir, err := os.MkdirTemp(base, "state-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	f.coord = dist.New(dist.Options{ShardUnits: 1, StateDir: dir})
	f.srv = httptest.NewServer(f.coord.Handler())
	for i := 0; i < 2; i++ {
		w, err := dist.StartWorker(dist.WorkerOptions{
			Coordinator: f.srv.URL,
			Name:        fmt.Sprintf("bench-%d", i),
			Serve:       serve.Options{Workers: 1},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, w := range f.workers {
		w.Close()
	}
	f.srv.Close()
	f.coord.Close()
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// fleetJob is one generated job.
type fleetJob struct {
	Kind   string `json:"kind"`
	DUT    string `json:"dut"`
	Stand  string `json:"stand"`
	Inline bool   `json:"inline"`
	Fresh  bool   `json:"fresh"` // inline with a new leading comment: a cache miss
	Trace  bool   `json:"trace"`
	Rev    string `json:"rev,omitempty"`
}

func (j fleetJob) class() string {
	switch {
	case j.Kind == api.KindMutate:
		return "mutate"
	case j.Trace:
		return "campaign+trace"
	}
	return "campaign"
}

// spec renders the wire job spec.
func (j fleetJob) spec(workbooks map[string]string) []byte {
	s := api.JobSpec{Kind: j.Kind, Trace: j.Trace}
	if j.Kind == api.KindCampaign {
		s.Stand = j.Stand
	}
	if j.Inline {
		s.Workbook = workbooks[j.DUT]
		if j.Fresh {
			s.Workbook = "# revision " + j.Rev + "\n" + s.Workbook
		}
		s.DUT = j.DUT
	} else {
		s.WorkbookName = j.DUT
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}

// The deck: every deckSize consecutive jobs hold exactly these shares,
// in a seed-shuffled order. Campaign jobs cover each workbook x stand
// pair twice; a quarter of them are fresh revisions, a quarter more are
// inline copies of the built-in text, the rest name the built-in
// workbook; a quarter (chosen independently) are traced. Every DUT's
// kill matrix runs once per deck as a mutate job. These shares are
// assumptions, not measured traffic; README.md gives the reason for each.
const (
	campaignPerPair = 2
	freshShare      = 4 // 1/freshShare of campaign jobs
	inlineShare     = 4
	traceShare      = 4
)

func fleetDeck(seed int64, k int, duts, stands []string) []fleetJob {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(k)+1<<32))
	var camp []fleetJob
	for _, d := range duts {
		for _, s := range stands {
			for i := 0; i < campaignPerPair; i++ {
				camp = append(camp, fleetJob{Kind: api.KindCampaign, DUT: d, Stand: s})
			}
		}
	}
	perm := rng.Perm(len(camp))
	for i, p := range perm {
		switch {
		case i < len(camp)/freshShare:
			camp[p].Inline, camp[p].Fresh = true, true
			camp[p].Rev = fmt.Sprintf("%d-%d-%d", seed, k, i)
		case i < len(camp)/freshShare+len(camp)/inlineShare:
			camp[p].Inline = true
		}
	}
	for i, p := range rng.Perm(len(camp)) {
		camp[p].Trace = i < len(camp)/traceShare
	}
	deck := camp
	for i, p := range rng.Perm(len(duts)) {
		deck = append(deck, fleetJob{Kind: api.KindMutate, DUT: duts[p], Inline: i%2 == 1})
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func runServiceFleet(cfg config) (*result, error) {
	duts, stands := comptest.DUTNames(), comptest.StandNames()
	workbooks := map[string]string{}
	campRefs := map[string]*campaignRef{}
	mutRefs := map[string]*mutationRef{}
	for _, d := range duts {
		wb, err := comptest.BuiltinWorkbook(d)
		if err != nil {
			return nil, err
		}
		workbooks[d] = wb
		for _, s := range stands {
			if campRefs[d+"/"+s], err = referenceCampaign(wb, s, d); err != nil {
				return nil, err
			}
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			return nil, err
		}
		plan, err := mutation.Enumerate(d, mutation.DefaultStand(d), suite)
		if err != nil {
			return nil, err
		}
		if mutRefs[d], err = referenceMutation(plan); err != nil {
			return nil, err
		}
	}
	deckSize := len(fleetDeck(cfg.seed, 0, duts, stands))
	jobAt := func(n int) fleetJob {
		return fleetDeck(cfg.seed, n/deckSize, duts, stands)[n%deckSize]
	}
	base, err := cfg.scratchDir("tmp")
	if err != nil {
		return nil, err
	}
	res := &result{layers: map[string]float64{}}

	var f *fleet
	var rejected atomic.Int64
	op := func(tr *tracer, n int, j fleetJob) opResult {
		return f.run(tr, n, j, workbooks, campRefs, mutRefs, &rejected)
	}
	// Set-up: start the coordinator and its workers, until both workers
	// are registered; repeated, median reported. The last fleet is
	// kept, and one untimed warm-up job goes through it before the
	// window opens.
	newFleet := func() (*fleet, error) { return startFleet(base) }
	if f, err = timeSetups(res, newFleet, (*fleet).close); err != nil {
		return nil, err
	}
	defer f.close()
	if r := op(nil, -1, fleetJob{Kind: api.KindCampaign, DUT: duts[0], Stand: stands[0]}); !r.ok {
		return nil, fmt.Errorf("warm-up job failed")
	}

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	before, err := f.metrics()
	if err != nil {
		return nil, err
	}
	res.main = loop(window, fleetClients, deckSize, 0, func(_, n int) opResult { return op(nil, n, jobAt(n)) })
	after, err := f.metrics()
	if err != nil {
		return nil, err
	}
	if err := retimeSetups(res, newFleet, (*fleet).close); err != nil {
		return nil, err
	}
	res.notef("mix: %s", fleetMix(res.main.attempted, jobAt))
	fleetCounters(res, delta(before, after), res.main.attempted, "untraced window")
	if !cfg.trace {
		return res, nil
	}

	tr := newTracer()
	rejected.Store(0)
	stopSampler, pendingMax := f.samplePending()
	before, err = f.metrics()
	if err != nil {
		stopSampler()
		return nil, err
	}
	traced := loop(window, fleetClients, deckSize, tracedFirst, func(_, n int) opResult { return op(tr, n, jobAt(n)) })
	after, err = f.metrics()
	stopSampler()
	if err != nil {
		return nil, err
	}
	res.traced = &traced
	d := delta(before, after)
	fleetCounters(res, d, traced.attempted, "traced window")
	res.layers["dist.merger_pending_max"] = float64(pendingMax.Load())
	res.layers["serve.rejected"] = float64(rejected.Load())
	for name, span := range map[string]string{
		"serve.submit_ms.p50": "serve.submit", "serve.first_line_ms.p50": "serve.first_line",
		"serve.stream_ms.p50": "serve.stream", "dist.trace_fetch_ms.p50": "dist.trace_fetch",
	} {
		res.layers[name] = median(tr.durationsMS(span))
	}
	tr.whereTimeGoes(res, "service_fleet campaign job, client side (campaign jobs without trace)",
		func(root span) bool { return root.Name == "campaign" })
	campaignJobs := 0
	for _, s := range tr.spans {
		if s.Parent < 0 && (s.Name == "campaign" || s.Name == "campaign+trace") {
			campaignJobs++
		}
	}
	qw := foldHist(d, serve.MetricQueueWait, true)
	rt := foldHist(d, dist.MetricShardRoundtrip, true)
	us := foldHist(d, serve.MetricUnitSeconds, false)
	res.notef("  server side, from /metrics deltas over the traced window:")
	res.notef("    serve.queue_wait (coordinator)   mean %.4f ms per job (%d jobs)", 1e3*ratio(qw.Sum, float64(qw.Count)), qw.Count)
	res.notef("    dist.shard_roundtrip             %.4f ms per campaign job (%d shards / %d campaign jobs)",
		1e3*ratio(rt.Sum, float64(campaignJobs)), rt.Count, campaignJobs)
	res.notef("    serve.unit (on workers)          %.4f ms per campaign job (%d units)",
		1e3*ratio(us.Sum, float64(campaignJobs)), us.Count)
	path, err := tr.write(cfg)
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	return res, nil
}

// fleetMix prints the realised shares of the first n jobs.
func fleetMix(n int, jobAt func(int) fleetJob) string {
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		j := jobAt(i)
		counts["kind="+j.Kind]++
		if j.Fresh {
			counts["fresh"]++
		}
		if j.Trace {
			counts["trace"]++
		}
		if j.Inline {
			counts["inline"]++
		}
		counts["workbook="+j.DUT]++
		if j.Kind == api.KindCampaign {
			counts["stand="+j.Stand]++
		}
	}
	return shares(counts, n)
}

// run executes one job as a closed-loop client: submit, read the
// stream to EOF, read the final status and, for traced jobs, the trace.
func (f *fleet) run(tr *tracer, n int, j fleetJob, workbooks map[string]string,
	campRefs map[string]*campaignRef, mutRefs map[string]*mutationRef, rejected *atomic.Int64) opResult {
	fail := func(format string, args ...any) opResult {
		fmt.Fprintf(os.Stderr, "FAILED service_fleet op %d %s: %s\n", n, mustJSON(j), fmt.Sprintf(format, args...))
		return opResult{}
	}
	body := j.spec(workbooks)
	t0 := time.Now()
	root := tr.begin(n, -1, j.class())
	id := tr.begin(n, root, "serve.submit")
	resp, err := f.client.Post(f.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	var st api.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.end(id)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		rejected.Add(1)
	}
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return fail("submit: HTTP %d (%v)", resp.StatusCode, err)
	}

	id = tr.begin(n, root, "serve.stream")
	first := tr.begin(n, id, "serve.first_line")
	stream, err := f.get("/v1/jobs/"+st.ID+"/stream", func() { tr.end(first) })
	tr.end(id)
	if err != nil {
		return fail("stream %s: %v", st.ID, err)
	}
	id = tr.begin(n, root, "serve.status")
	raw, err := f.get("/v1/jobs/"+st.ID, nil)
	tr.end(id)
	if err != nil {
		return fail("status %s: %v", st.ID, err)
	}
	var final api.JobStatus
	if err := json.Unmarshal(raw, &final); err != nil {
		return fail("status %s: %v", st.ID, err)
	}
	var trace []byte
	if j.Trace {
		id = tr.begin(n, root, "dist.trace_fetch")
		trace, err = f.get("/v1/jobs/"+st.ID+"/trace", nil)
		tr.end(id)
		if err != nil {
			return fail("trace %s: %v", st.ID, err)
		}
	}
	tr.end(root)
	r := opResult{dur: time.Since(t0)}

	if final.State != api.StateDone {
		return fail("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	switch j.Kind {
	case api.KindCampaign:
		ref := campRefs[j.DUT+"/"+j.Stand]
		sum := ref.sum
		want := api.CampaignStatus{Units: sum.Units, Passed: sum.Passed, Failed: sum.Failed,
			Errored: sum.Errored, Skipped: sum.Skipped}
		switch {
		case final.Verdict != ref.verdict():
			return fail("job %s verdict %q, reference %q", st.ID, final.Verdict, ref.verdict())
		case final.Campaign == nil || *final.Campaign != want:
			return fail("job %s campaign status %+v, reference %+v", st.ID, final.Campaign, want)
		case !bytes.Equal(stream, ref.stream):
			return fail("job %s NDJSON stream (%d bytes) differs from the reference (%d bytes)", st.ID, len(stream), len(ref.stream))
		case j.Trace && !bytes.Equal(trace, ref.trace):
			return fail("job %s trace (%d bytes) differs from the reference (%d bytes)", st.ID, len(trace), len(ref.trace))
		}
		r.units, r.simS = sum.Units, ref.simS
	case api.KindMutate:
		ref := mutRefs[j.DUT]
		switch {
		case final.Verdict != "green":
			return fail("job %s verdict %q, reference green", st.ID, final.Verdict)
		case final.Mutation == nil || *final.Mutation != ref.status:
			return fail("job %s mutation status %+v, reference %+v", st.ID, final.Mutation, ref.status)
		case !bytes.Equal(stream, ref.stream):
			return fail("job %s NDJSON stream (%d bytes) differs from the reference (%d bytes)", st.ID, len(stream), len(ref.stream))
		}
		r.units, r.simS = ref.units, ref.simS
	}
	r.ok = true
	return r
}

// get reads a GET response to EOF; onFirstLine, when set, runs when the
// first newline arrives.
func (f *fleet) get(path string, onFirstLine func()) ([]byte, error) {
	resp, err := f.client.Get(f.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if onFirstLine == nil {
		return io.ReadAll(resp.Body)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	onFirstLine()
	if err != nil {
		if err == io.EOF {
			return line, nil
		}
		return nil, err
	}
	rest, err := io.ReadAll(br)
	return append(line, rest...), err
}

// metrics scrapes the coordinator's fleet-wide /metrics in JSON form.
func (f *fleet) metrics() (obs.Snapshot, error) {
	raw, err := f.get("/metrics?format=json", nil)
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	return obs.ParseJSON(raw)
}

// samplePending reads the merger's buffered-line gauge from the
// coordinator's own registry until stopped, keeping the maximum. It
// reads in process: the fleet-wide /metrics would also scrape every
// worker over HTTP on each tick, and that load would land on the
// traced window only.
func (f *fleet) samplePending() (stop func(), maxSeen *atomic.Int64) {
	maxSeen = &atomic.Int64{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if v := int64(f.coord.Metrics().Snapshot().Value(dist.MetricMergerPending)); v > maxSeen.Load() {
				maxSeen.Store(v)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }, maxSeen
}

// fleetCounters derives the serve.* and dist.* layer numbers from one
// window's /metrics delta and prints each with its base.
func fleetCounters(res *result, d obs.Snapshot, jobs int, label string) {
	hits := sumCounter(d, serve.MetricCacheHits, true)
	misses := sumCounter(d, serve.MetricCacheMisses, true)
	qw := foldHist(d, serve.MetricQueueWait, true)
	us := foldHist(d, serve.MetricUnitSeconds, false)
	rt := foldHist(d, dist.MetricShardRoundtrip, true)
	completed := sumCounter(d, dist.MetricShardsCompleted, true)
	requeued := sumCounter(d, dist.MetricShardRequeues, true)
	records := sumCounter(d, dist.MetricJournalRecords, true)
	jbytes := sumCounter(d, dist.MetricJournalBytes, true)
	l := res.layers
	l["serve.cache_hits"], l["serve.cache_misses"] = hits, misses
	l["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["serve.queue_wait_s.p50"] = obs.Quantile(qw, 0.50)
	l["serve.queue_wait_s.p95"] = obs.Quantile(qw, 0.95)
	l["serve.unit_s.p50"] = obs.Quantile(us, 0.50)
	l["dist.shard_roundtrip_s.p50"] = obs.Quantile(rt, 0.50)
	l["dist.shard_roundtrip_s.p95"] = obs.Quantile(rt, 0.95)
	l["dist.shards_completed"] = completed
	l["dist.shards_local"] = sumCounter(d, dist.MetricShardsLocal, true)
	l["dist.shards_requeued"] = requeued
	l["dist.shards_stolen"] = sumCounter(d, dist.MetricShardsStolen, true)
	l["dist.requeue_ratio"] = ratio(requeued, completed)
	l["dist.journal_records_per_job"] = ratio(records, float64(jobs))
	l["dist.journal_bytes_per_job"] = ratio(jbytes, float64(jobs))
	res.notef("server counters, %s (/metrics deltas): cache hit ratio %.4f (= %.0f hits / %.0f lookups); "+
		"requeue ratio %.4f (= %.0f requeued / %.0f shards completed); shards local %.0f, stolen %.0f; "+
		"queue wait p50 %.6f s p95 %.6f s (%d jobs); unit p50 %.6f s (%d units); shard round trip p50 %.6f s p95 %.6f s (%d shards); "+
		"journal %.2f records/job, %.1f bytes/job (= %.0f records, %.0f bytes / %d jobs)",
		label, l["serve.cache_hit_ratio"], hits, hits+misses, l["dist.requeue_ratio"], requeued, completed,
		l["dist.shards_local"], l["dist.shards_stolen"], l["serve.queue_wait_s.p50"], l["serve.queue_wait_s.p95"], qw.Count,
		l["serve.unit_s.p50"], us.Count, l["dist.shard_roundtrip_s.p50"], l["dist.shard_roundtrip_s.p95"], rt.Count,
		l["dist.journal_records_per_job"], l["dist.journal_bytes_per_job"], records, jbytes, jobs)
}
