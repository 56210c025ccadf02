package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/comptest/serve"
	"repro/internal/obs"
	"repro/internal/report"
)

// Options configures a Coordinator. Zero values select the defaults.
type Options struct {
	// Serve configures the embedded job server (queue depth, worker
	// pool, cache, retention). Its Executor field is owned by the
	// coordinator and overwritten; so is Hooks when StateDir is set.
	Serve serve.Options
	// ShardUnits bounds the units per shard (default 4). Smaller
	// shards spread wider and requeue cheaper; larger shards amortise
	// dispatch overhead.
	ShardUnits int
	// StateDir, when set, makes the coordinator durable: every
	// coordination event appends to <StateDir>/journal.ndjson, and on
	// startup the journal is replayed — accepted jobs reappear,
	// in-flight jobs resume from their flushed stream offset, and
	// shards whose workers retained them across the outage are
	// re-adopted (re-attached, not re-run). If the directory or journal
	// is unusable the error is logged and the coordinator runs
	// non-durable rather than refusing to start.
	StateDir string
	// ShardTargetSeconds, when > 0, auto-tunes the campaign shard size
	// so one shard carries roughly this many seconds of work, using the
	// observed mean unit cost (the comptest_unit_seconds histogram).
	// Until enough samples exist, ShardUnits applies. The chosen size
	// is pinned per job in the journal, so a recovered campaign re-chunks
	// exactly as it originally did. Off (0) by default: auto-sizing
	// changes shard boundaries between runs, which is fine for results
	// (the merge is order-identical regardless) but makes dispatch
	// timing less reproducible.
	ShardTargetSeconds float64
	// StealLocal lets the coordinator's own executor steal a shard that
	// has waited StealAfter for a remote slot while the whole fleet is
	// saturated. Off by default: stealing trades strict fleet affinity
	// for latency, and a coordinator co-located with heavy jobs may not
	// want the extra load.
	StealLocal bool
	// StealAfter is how long a shard waits for a remote slot before
	// StealLocal may claim it (default 2s). Ignored without StealLocal.
	StealAfter time.Duration
	// LeaseTTL is how long a worker stays schedulable without a
	// heartbeat (default 15s). Workers heartbeat at a third of this.
	LeaseTTL time.Duration
	// ShardTimeout bounds one remote shard execution before it is
	// requeued elsewhere (default 2m).
	ShardTimeout time.Duration
	// MaxAttempts is how many workers a shard is tried on before the
	// coordinator executes it locally itself (default 3).
	MaxAttempts int
	// Client performs coordinator→worker HTTP; nil builds one.
	Client *http.Client
	// ScrapeTimeout bounds one worker /metrics fetch during fleet
	// aggregation (default 2s): a slow worker delays, never wedges, the
	// coordinator's own exposition. `comptest serve -coordinator
	// -scrape-timeout` sets it.
	ScrapeTimeout time.Duration
	// Logger, when non-nil, receives the coordinator's structured fleet
	// events (worker registration, lease expiry). Shard-level events go
	// to the owning job's logger instead, carrying job/shard/worker
	// correlation attrs.
	Logger *slog.Logger

	now func() time.Time // test clock for the registry and latency histograms
}

func (o Options) withDefaults() Options {
	if o.ShardUnits < 1 {
		o.ShardUnits = 4
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.ScrapeTimeout <= 0 {
		o.ScrapeTimeout = 2 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.now == nil {
		o.now = obs.Wall
	}
	return o
}

// Coordinator is the distributed front of the campaign service: the
// same job API as comptest/serve (it embeds a serve.Server), but jobs
// execute by sharding their unit matrix over registered remote
// workers. Campaign jobs are split into bounded chunks of scripts;
// each chunk travels as an ordinary serve job (same wire format,
// workbook shipped inline so the worker's content-addressed cache
// parses it once per node) and the streamed per-unit NDJSON reports
// merge back — exactly-once, in global unit order — into the job's
// result log, byte-identical to a single-node run. Mutate, explore and
// vet jobs travel the same path as one piece of unknown length: their
// engines stream in unit order at any parallelism, so the piece
// requeues, falls back, is stolen and recovers exactly like a campaign
// shard. With no live workers, everything falls back to local
// execution: a coordinator alone behaves exactly like a plain
// serve.Server.
type Coordinator struct {
	opts      Options
	reg       *Registry
	srv       *serve.Server
	client    *http.Client
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Telemetry: the registry is shared with the embedded serve.Server,
	// so the coordinator's dist_* families and the server's comptest_*
	// families render from one /metrics handler (see metrics.go).
	metrics          *obs.Registry
	mRequeues        *obs.Counter
	mLeaseExpiries   *obs.Counter
	mShardsCompleted *obs.Counter
	mShardsLocal     *obs.Counter
	mShardsStolen    *obs.Counter
	mShardsReadopted *obs.Counter
	mJobsRecovered   *obs.Counter
	mJournalRecords  *obs.Counter
	mJournalBytes    *obs.Counter
	mScrapeErrors    *obs.Counter
	mShardRoundtrip  *obs.Histogram
	mScrapeSeconds   *obs.Histogram
	mergerMu         sync.Mutex
	mergers          map[*report.Merger]struct{}

	// Durable state (nil / empty without Options.StateDir): the journal
	// this coordinator appends to, and the replayed per-job state the
	// executor claims — once — when a restored job reaches it.
	journal     *journal
	recoveredMu sync.Mutex
	recovered   map[string]*recoveredJob

	logger *slog.Logger
	clock  func() time.Time
}

// New builds a Coordinator and its embedded job server. With
// Options.StateDir set it first replays the journal found there —
// compacting it into a fresh snapshot before anything can append — so
// the jobs and fleet of the previous incarnation are live again before
// the handler takes its first request.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:      opts,
		reg:       newRegistry(opts.LeaseTTL, opts.now),
		client:    opts.Client,
		stop:      make(chan struct{}),
		mergers:   map[*report.Merger]struct{}{},
		recovered: map[string]*recoveredJob{},
		logger:    opts.Logger,
		clock:     opts.now,
	}
	var replayedSt *replayed
	if opts.StateDir != "" {
		st, jnl, err := openJournal(opts.StateDir)
		if err != nil {
			c.logger.Error("durable state disabled", "state_dir", opts.StateDir, "error", err.Error())
		} else {
			replayedSt = st
			c.journal = jnl
		}
	}
	serveOpts := opts.Serve
	serveOpts.Executor = c.execute
	if serveOpts.Metrics == nil {
		serveOpts.Metrics = obs.NewRegistry()
	}
	c.metrics = serveOpts.Metrics
	if c.journal != nil {
		// The persistence seam: acceptance (spec + workbook) before the
		// job can run, every contiguously-flushed stream line, and the
		// terminal status. Restore fires none of these for replayed
		// history, so recovery never re-journals the journal.
		serveOpts.Hooks = serve.Hooks{
			Accepted: func(id string, spec serve.JobSpec, workbook string) {
				c.journal.append(journalRec{T: "job", Job: id, Spec: &spec, Workbook: workbook})
			},
			Line: func(id string, line []byte) {
				c.journal.append(journalRec{T: "line", Job: id,
					Line: string(bytes.TrimSuffix(line, []byte("\n")))})
			},
			Finished: func(st serve.JobStatus) {
				c.journal.append(journalRec{T: "done", Job: st.ID, Status: &st})
			},
		}
	}
	c.srv = serve.New(serveOpts)
	c.registerMetrics()
	if c.journal != nil {
		c.journal.mRecords = c.mJournalRecords
		c.journal.mBytes = c.mJournalBytes
	}
	// Counted under the registry lock at the moment liveness flips, so
	// one lapse is one increment no matter how many goroutines observe it.
	c.reg.onExpire = func(id string) {
		c.mLeaseExpiries.Inc()
		c.logger.Warn("worker lease expired", "worker", id)
	}
	// Lease expiry is time-based and has no event to broadcast on; a
	// slow ticker wakes blocked acquires so they can re-evaluate
	// liveness (and fall back to local execution when the fleet died).
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(wakeEvery(opts.LeaseTTL))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.reg.broadcast()
			case <-c.stop:
				return
			}
		}
	}()
	if replayedSt != nil {
		c.adoptReplayed(replayedSt)
	}
	return c
}

func wakeEvery(ttl time.Duration) time.Duration {
	if d := ttl / 4; d >= 50*time.Millisecond {
		return d
	}
	return 50 * time.Millisecond
}

// Server exposes the embedded job server (for tests and embedding).
func (c *Coordinator) Server() *serve.Server { return c.srv }

// Registry exposes the worker registry.
func (c *Coordinator) Registry() *Registry { return c.reg }

// Close shuts the coordinator down: jobs are cancelled through the
// embedded server (which propagates to in-flight shard dispatches),
// the registry stops admitting workers, and the ticker drains.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.reg.close()
		c.srv.Close()
		close(c.stop)
		c.wg.Wait()
		// After srv.Close: cancelled jobs journal their terminal status
		// through the Finished hook before the file closes.
		c.journal.close()
		c.client.CloseIdleConnections()
	})
}

// Handler returns the coordinator API: the full serve job API plus
// the worker registry endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.srv.Handler())
	// More specific than the "/" mount, so the fleet-aggregated views
	// shadow the embedded server's node-local /metrics and /slo here.
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /slo", c.handleSLO)
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	return mux
}

// ------------------------------------------------------------- handlers --

func jsonOut(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func jsonErr(w http.ResponseWriter, code int, format string, args ...any) {
	jsonOut(w, code, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		jsonErr(w, http.StatusBadRequest, "malformed registration: %v", err)
		return
	}
	resp, err := c.reg.Register(req)
	if err != nil {
		// Protocol mismatch is a conflict between two healthy builds,
		// not a malformed request.
		jsonErr(w, http.StatusConflict, "%v", err)
		return
	}
	capacity := req.Capacity
	if capacity < 1 {
		capacity = 1
	}
	c.journal.append(journalRec{T: "worker", Info: &WorkerInfo{
		ID: resp.ID, Name: req.Name, URL: req.URL, Version: req.Version,
		Protocol: req.Protocol, Capacity: capacity,
		Kinds: req.Kinds, DUTs: req.DUTs, Stands: req.Stands,
	}})
	c.logger.Info("worker registered", "worker", resp.ID, "name", req.Name, "url", req.URL)
	jsonOut(w, http.StatusOK, resp)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	jsonOut(w, http.StatusOK, struct {
		Workers []WorkerInfo `json:"workers"`
	}{c.reg.Snapshot()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.reg.Heartbeat(r.PathValue("id")) {
		jsonErr(w, http.StatusNotFound, "no worker %q (re-register)", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	c.reg.Deregister(r.PathValue("id"))
	c.journal.append(journalRec{T: "worker_gone", Worker: r.PathValue("id")})
	c.logger.Info("worker deregistered", "worker", r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// ------------------------------------------------------------ execution --

// permanentError marks a dispatch failure that requeueing cannot fix
// (the job itself is wrong, or the protocol was violated).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanentf(format string, args ...any) error {
	return &permanentError{fmt.Errorf(format, args...)}
}

// errBusy: the worker's own admission control rejected the shard
// (503). The worker is healthy — try another, don't mark it lost.
var errBusy = errors.New("dist: worker queue full")

// execute is the serve.Executor of the coordinator, and the one
// dispatch path of every job kind. The job's unit sequence is cut into
// shards, every shard runs through runShard, and the lines the shards
// stream merge exactly-once, in sequence order, into the job's result
// log. A campaign is chunked into bounded runs of scripts whose line i
// is unit base+i. A mutate, explore or vet job is one piece of unknown
// length at base 0: its engine streams in Seq order at any parallelism
// (mutation.Options.Sink), so line i of the piece is the same bytes on
// every node, and requeue, stealing and crash recovery dedup it exactly
// like a campaign shard.
func (c *Coordinator) execute(ctx context.Context, ex serve.Execution) (string, error) {
	rec := c.takeRecovered(ex.ID)
	j := &jobRun{ex: ex, lg: execLogger(ex)}
	shards := []shardSpec{{names: ex.Spec.Scripts, open: true}}
	if ex.Spec.Kind == serve.KindCampaign {
		var err error
		if shards, err = c.chunkCampaign(ex, rec); err != nil {
			return "", err
		}
		j.tl = &tally{}
		for _, sh := range shards {
			j.tl.st.Units += len(sh.names)
		}
	}
	// The resumed merger's floor is the journaled stream offset: those
	// lines are already in the (preloaded) result log, so re-deliveries
	// of them — from re-adopted streams or re-run shards — drop as
	// duplicates and the first line this process writes is line floor.
	floor := 0
	if rec != nil {
		floor = len(rec.lines)
		if j.tl != nil {
			seedTally(j.tl, rec.lines)
		}
	}
	j.merger = report.ResumeMerger(ex.Log, floor)
	defer c.trackMerger(j.merger)()
	// Traced campaigns reassemble the global span tree the same way the
	// result log reassembles report lines: each shard's spans arrive as a
	// complete subtree, are re-based onto the global unit sequence and
	// released in order, so the merged NDJSON is byte-identical to a
	// single-node `run -trace` of the same campaign.
	if ex.Trace != nil {
		j.tm = report.NewTraceMerger(report.NewSpanWriter(ex.Trace))
	}
	j.prog = newProgress(len(shards), ex.OnShards)

	// A fatal shard error (permanent dispatch failure, local fallback
	// failure) aborts the remaining shards through this child context;
	// the JOB context stays intact so serve classifies the outcome as
	// failed, not cancelled.
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		finished = make([]serve.JobStatus, len(shards))
	)
	for i, sh := range shards {
		var adopt *dispatchRec
		if rec != nil {
			if !sh.open && j.tm == nil && sh.base+len(sh.names) <= floor {
				// Every unit of this shard is below the flushed floor: the
				// journal holds its full output, nothing re-runs. (Traced
				// jobs skip this skip — spans are not journaled, so every
				// shard re-attaches to rebuild the span tree.)
				c.note(j, shardRecovered, rec.dispatches[sh.base].worker)
				continue
			}
			if d, ok := rec.dispatches[sh.base]; ok {
				adopt = &d
			}
		}
		wg.Add(1)
		go func(i int, sh shardSpec, adopt *dispatchRec) {
			defer wg.Done()
			st, err := c.runShard(dctx, j, sh, adopt)
			finished[i] = st
			if err != nil && dctx.Err() == nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				dcancel()
			}
		}(i, sh, adopt)
	}
	wg.Wait()
	if j.tm != nil {
		// Unconditional, mirroring the single-node runner: even a failed
		// campaign closes its trace with whatever units completed.
		j.tm.Flush()
	}

	var st serve.CampaignStatus
	if j.tl != nil {
		st = j.tl.status()
		if ex.OnCampaign != nil {
			ex.OnCampaign(st)
		}
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if firstErr != nil {
		return "", firstErr
	}
	if err := j.merger.Err(); err != nil {
		return "", err
	}
	if j.tl == nil {
		// The one per-kind difference: a non-campaign job's verdict and
		// summary are those of the execution that completed its piece.
		return publishPiece(ex, finished[0]), nil
	}
	if st.Passed == st.Units {
		return "green", nil
	}
	return "red", nil
}

// publishPiece relays a completed piece's kind summary into the job
// status and returns its verdict.
func publishPiece(ex serve.Execution, st serve.JobStatus) string {
	if st.Mutation != nil && ex.OnMutation != nil {
		ex.OnMutation(*st.Mutation)
	}
	if st.Exploration != nil && ex.OnExploration != nil {
		ex.OnExploration(*st.Exploration)
	}
	if st.Vet != nil && ex.OnVet != nil {
		ex.OnVet(*st.Vet)
	}
	return st.Verdict
}

// shardSpec is one contiguous piece of a job's line sequence: line i
// of its stream is global sequence base+i. A campaign shard carries
// its scripts, one unit — one line — each. An open piece (a whole
// mutate, explore or vet job) streams an unknown number of lines and
// is complete when its execution terminates done.
type shardSpec struct {
	base  int
	names []string
	open  bool
}

// chunkCampaign cuts the campaign's script selection into contiguous
// shards. A recovered job re-chunks with the shard size pinned in its
// plan record — auto-tuning may have picked a different size since,
// and shard boundaries must not move under the journaled dispatch
// state.
func (c *Coordinator) chunkCampaign(ex serve.Execution, rec *recoveredJob) ([]shardSpec, error) {
	scripts, err := ex.Art.Select(ex.Spec.Scripts)
	if err != nil {
		return nil, err
	}
	size := c.opts.ShardUnits
	switch {
	case rec != nil && rec.shardUnits > 0:
		size = rec.shardUnits
	case c.opts.ShardTargetSeconds > 0:
		mean, samples := c.srv.UnitCost()
		size = autoShardSize(c.opts.ShardTargetSeconds, mean, samples, size)
	}
	c.journal.append(journalRec{T: "plan", Job: ex.ID, ShardUnits: size})
	var shards []shardSpec
	for base := 0; base < len(scripts); base += size {
		sh := shardSpec{base: base}
		for _, sc := range scripts[base:min(base+size, len(scripts))] {
			sh.names = append(sh.names, sc.Name)
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// jobRun is one execution's merge state, shared by all its shards.
type jobRun struct {
	ex     serve.Execution
	lg     *slog.Logger
	merger *report.Merger
	tm     *report.TraceMerger // nil unless traced
	tl     *tally              // nil unless a campaign
	prog   *progress
}

// progress tracks ShardStatus and publishes every change.
type progress struct {
	mu      sync.Mutex
	st      serve.ShardStatus
	workers map[string]bool
	publish func(serve.ShardStatus)
}

func newProgress(total int, publish func(serve.ShardStatus)) *progress {
	p := &progress{st: serve.ShardStatus{Total: total}, workers: map[string]bool{}, publish: publish}
	p.push()
	return p
}

func (p *progress) push() {
	if p.publish == nil {
		return
	}
	st := p.st
	st.Workers = st.Workers[:0:0]
	for id := range p.workers {
		st.Workers = append(st.Workers, id)
	}
	sort.Strings(st.Workers)
	p.publish(st)
}

// shardEvent is one step of a shard's life, counted both in the job's
// ShardStatus and in the coordinator's dist_* counters.
type shardEvent int

const (
	shardMerged    shardEvent = iota // a worker's stream completed the shard
	shardReadopted                   // re-attached to the worker that retained it across a restart
	shardLocal                       // run in-process: no live worker, or remote attempts exhausted
	shardStolen                      // claimed in-process from a saturated fleet (Options.StealLocal)
	shardRecovered                   // the journal proves every unit reached the stream before a crash
	shardRequeued                    // taken off its worker to run again
)

// note records ev for one of the job's shards. Every event but a
// requeue completes the shard, and its worker, when known, joins the
// job's executors.
func (c *Coordinator) note(j *jobRun, ev shardEvent, workerID string) {
	p := j.prog
	p.mu.Lock()
	defer p.mu.Unlock()
	defer p.push()
	switch ev {
	case shardMerged:
		c.mShardsCompleted.Inc()
	case shardReadopted:
		p.st.Readopted++
		c.mShardsReadopted.Inc()
		c.mShardsCompleted.Inc()
	case shardLocal:
		p.st.Local++
		c.mShardsLocal.Inc()
	case shardStolen:
		p.st.Stolen++
		c.mShardsStolen.Inc()
	case shardRequeued:
		p.st.Requeued++
		c.mRequeues.Inc()
		return
	}
	p.st.Completed++
	if workerID != "" {
		p.workers[workerID] = true
	}
}

// tally accumulates per-unit verdicts as lines merge; only accepted
// (non-duplicate) lines count, so requeued shards cannot double-book.
type tally struct {
	mu sync.Mutex
	st serve.CampaignStatus
}

// book counts one accepted unit line: its report, or nil for an
// error line.
func (t *tally) book(rep *report.Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case rep == nil:
		t.st.Errored++
	case rep.Passed():
		t.st.Passed++
	default:
		t.st.Failed++
	}
}

// status snapshots the tally. Skipped = units with no accounted
// outcome. The tally counts every accepted line — including ones still
// buffered behind a gap the failed job will never fill — so deriving
// Skipped from it (not from merger.Written()) keeps the four buckets
// summing to Units even on partial failures.
func (t *tally) status() serve.CampaignStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.Skipped = st.Units - st.Passed - st.Failed - st.Errored
	return st
}

// runShard drives one shard to completion: re-adopt it from a worker
// that retained it across a coordinator restart (when recovery left a
// dispatch address), else acquire a worker, dispatch, and on worker
// loss requeue on a survivor — the merger's sequence dedup makes the
// retry exactly-once even when the dead worker already delivered part
// of the shard. When no worker is live (or remote attempts are
// exhausted, or a saturated fleet kept the shard waiting past the
// steal deadline) the coordinator executes the shard itself. The
// returned status is the completing execution's (see shardSpec.open).
func (c *Coordinator) runShard(ctx context.Context, j *jobRun, sh shardSpec, adopt *dispatchRec) (serve.JobStatus, error) {
	spec := j.ex.Spec
	n := need{kind: spec.Kind, dut: spec.DUT, stand: spec.Stand}
	lg := j.lg
	if adopt != nil {
		st, aerr := c.adoptShard(ctx, *adopt, j, sh)
		if aerr == nil {
			c.note(j, shardReadopted, adopt.worker)
			lg.Info("shard re-adopted", "shard", sh.base, "worker", adopt.worker, "units", len(sh.names))
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var pe *permanentError
		if errors.As(aerr, &pe) {
			return st, aerr
		}
		// The retained job is gone (worker restarted during the outage,
		// retention evicted it, …): erase the stale address and fall
		// through to a normal dispatch. Units it already delivered sit
		// below the merger floor and stay exactly-once.
		c.requeue(j, sh, "shard re-adoption failed; redispatching", adopt.worker, aerr)
	}
	exclude := map[string]bool{}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return serve.JobStatus{}, err
		}
		if attempt >= c.opts.MaxAttempts {
			return c.runLocal(ctx, j, sh, false)
		}
		ls, stole, err := c.reg.acquire(ctx, n, exclude, c.stealDeadline())
		if stole || errors.Is(err, ErrNoWorkers) {
			return c.runLocal(ctx, j, sh, stole)
		}
		if err != nil {
			return serve.JobStatus{}, err
		}
		lg.Info("shard dispatched", "shard", sh.base, "worker", ls.id, "units", len(sh.names))
		t0 := c.clock()
		st, derr := c.dispatchShard(ctx, ls, j, sh)
		c.reg.release(ls.id)
		if derr == nil {
			secs := c.clock().Sub(t0).Seconds()
			c.mShardRoundtrip.Observe(secs)
			c.note(j, shardMerged, ls.id)
			lg.Info("shard merged", "shard", sh.base, "worker", ls.id, "seconds", secs)
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var pe *permanentError
		if errors.As(derr, &pe) {
			return st, derr
		}
		if errors.Is(derr, errBusy) {
			// The worker is healthy, its own admission control is just
			// full (direct submissions compete for its queue). Neither
			// exclude nor mark it lost — back off briefly and let the
			// bounded attempt counter retry anywhere, including there.
			select {
			case <-ctx.Done():
				return st, ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		// The worker failed mid-dispatch: stop scheduling onto it
		// until it heartbeats again, and never retry THIS shard on
		// it — its next heartbeat must not win the shard back.
		c.reg.MarkLost(ls.id)
		exclude[ls.id] = true
		c.requeue(j, sh, "shard requeued", ls.id, derr)
	}
}

// requeue journals and accounts a shard leaving the worker that held
// it: the stale dispatch address is erased, so recovery never
// re-adopts it.
func (c *Coordinator) requeue(j *jobRun, sh shardSpec, msg, workerID string, err error) {
	c.journal.append(journalRec{T: "requeue", Job: j.ex.ID, Shard: sh.base})
	c.note(j, shardRequeued, "")
	j.lg.Warn(msg, "shard", sh.base, "worker", workerID, "error", err.Error())
}

// stealDeadline is the acquire steal timeout: 0 (never) unless
// Options.StealLocal opted in.
func (c *Coordinator) stealDeadline() time.Duration {
	if !c.opts.StealLocal {
		return 0
	}
	return c.opts.StealAfter
}

// autoShardSize picks a campaign shard size carrying roughly
// targetSeconds of work at the observed meanUnitSeconds cost. Below
// autoShardMinSamples observations the estimate is noise and fallback
// applies; the result clamps to [1, maxAutoShardUnits] so a pathological
// estimate can neither serialise the campaign into single-unit shards'
// inverse (a giant undivided shard) nor explode the dispatch count.
func autoShardSize(targetSeconds, meanUnitSeconds float64, samples int64, fallback int) int {
	if samples < autoShardMinSamples || meanUnitSeconds <= 0 || targetSeconds <= 0 {
		return fallback
	}
	size := int(targetSeconds / meanUnitSeconds)
	if size < 1 {
		return 1
	}
	if size > maxAutoShardUnits {
		return maxAutoShardUnits
	}
	return size
}

const (
	autoShardMinSamples = 8
	maxAutoShardUnits   = 256
)

// execLogger returns the job's structured logger, or a discard logger
// for callers (tests, embedders driving execute directly) that never
// wired one — shard events must not force nil checks at every site.
func execLogger(ex serve.Execution) *slog.Logger {
	if ex.Logger != nil {
		return ex.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// forward merges one line of a shard's stream as global sequence seq.
// A campaign's lines are unit reports: each accepted one is tallied,
// and an error line (a unit that produced no report) has its
// shard-local sequence rewritten to the global numbering. Other kinds'
// lines merge verbatim. Duplicate sequences (requeue re-delivery) are
// dropped by the merger and not tallied.
func (j *jobRun) forward(seq int, line []byte) error {
	var rep *report.Report
	if j.tl != nil {
		var el *report.ErrorLine
		var err error
		if rep, el, err = decodeUnitLine(line); err != nil {
			return permanentf("dist: %v: %.120s", err, line)
		}
		if el != nil {
			el.Seq = seq
			if line, err = json.Marshal(el); err != nil {
				return err
			}
		}
	}
	// line may alias a read buffer — never append to it in place.
	out := make([]byte, len(line)+1)
	copy(out, line)
	out[len(line)] = '\n'
	accepted, err := j.merger.Add(seq, out)
	if err == nil && accepted && j.tl != nil {
		j.tl.book(rep)
	}
	return err
}

// decodeUnitLine decodes one campaign stream line: a unit's report, or
// else the error line of a unit that produced none.
func decodeUnitLine(line []byte) (*report.Report, *report.ErrorLine, error) {
	rep, derr := report.DecodeJSON(line)
	if derr == nil {
		return rep, nil, nil
	}
	el, err := report.DecodeErrorLine(line)
	if err != nil {
		return nil, nil, fmt.Errorf("unrecognisable stream line (%v / %v)", derr, err)
	}
	return nil, &el, nil
}

// readLines consumes an NDJSON stream, invoking fn once per COMPLETE
// (newline-terminated) line. A truncated final line — a worker dying
// mid-write — is discarded, not surfaced: the shard requeue must
// re-deliver that unit, never merge half a report. No line-length cap
// (a bufio.Scanner token limit would make oversized reports fail
// distributed but succeed single-node).
func readLines(r io.Reader, fn func(line []byte) error) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err == nil {
			if err := fn(line[:len(line)-1]); err != nil {
				return err
			}
			continue
		}
		if err == io.EOF {
			return nil // any unterminated tail is dropped by design
		}
		return err
	}
}

// dispatchShard runs one shard on one worker over the serve wire
// format: POST the shard as a job (workbook inline — the worker's
// content-addressed cache parses it once per node no matter how many
// shards follow), stream its NDJSON, and merge each line under the
// shard's global sequence numbers.
func (c *Coordinator) dispatchShard(ctx context.Context, ls lease, j *jobRun, sh shardSpec) (serve.JobStatus, error) {
	sctx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
	defer cancel()

	spec := j.ex.Spec
	spec.Scripts = sh.names
	spec.Workbook = string(j.ex.Art.Source)
	spec.WorkbookName = ""
	// The shard runs under the WORKER's admission: the tenant already
	// passed the coordinator's front-door quota, and older workers
	// reject specs with fields they don't know.
	spec.Tenant = ""
	// The trace flag travels with the shard: each worker records its
	// units' spans on a shard-local simulated timeline, and the
	// TraceMerger re-bases them onto the job's global sequence once the
	// shard completes.
	jobID, err := c.submit(sctx, ls.url, spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	// Journaled after the submit succeeded: the remote job now exists
	// and outlives this coordinator (workers retain terminal jobs), so
	// a restarted coordinator can re-adopt it at this address.
	c.journal.append(journalRec{T: "dispatch", Job: j.ex.ID, Shard: sh.base,
		Worker: ls.id, URL: ls.url, Remote: jobID})
	st, err := c.streamShard(sctx, ls, jobID, j, sh)
	if err != nil {
		// Cancel propagation: whether the job was cancelled or this
		// shard is being requeued, the worker must stop simulating
		// units nobody will merge. The job context may already be
		// dead, so the DELETE gets its own short deadline.
		c.cancelRemote(ls.url, jobID)
	}
	return st, err
}

// streamShard attaches to a worker-side shard job's stream — fresh
// dispatch and crash re-adoption share this path — and merges each
// line under the shard's global sequence numbers. A clean EOF means
// the remote job terminated: a shard of known length is complete when
// every unit arrived, an open piece when the worker reports the job
// done (that status is returned). A job the worker FAILED would fail
// identically anywhere, so that is permanent.
func (c *Coordinator) streamShard(sctx context.Context, ls lease, jobID string, j *jobRun, sh shardSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		ls.url+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return st, fmt.Errorf("dist: stream shard from %s: %w", ls.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("dist: stream shard from %s: status %d", ls.id, resp.StatusCode)
	}
	idx := 0
	if err := readLines(resp.Body, func(line []byte) error {
		if !sh.open && idx >= len(sh.names) {
			return permanentf("dist: worker %s streamed more lines than the shard has units (%d)", ls.id, len(sh.names))
		}
		if err := j.forward(sh.base+idx, line); err != nil {
			return err
		}
		idx++
		return nil
	}); err != nil {
		var pe *permanentError
		if errors.As(err, &pe) || j.merger.Err() != nil {
			return st, err
		}
		return st, fmt.Errorf("dist: shard stream from %s broke after %d lines: %w", ls.id, idx, err)
	}
	if sh.open || idx < len(sh.names) {
		st, err = c.remoteStatus(ls.url, jobID)
		switch {
		case err != nil:
			return st, fmt.Errorf("dist: status of shard from %s after %d lines: %w", ls.id, idx, err)
		case st.State == serve.StateFailed:
			return st, permanentf("dist: worker %s failed the shard: %s", ls.id, st.Error)
		case !sh.open || st.State != serve.StateDone:
			return st, fmt.Errorf("dist: worker %s ended the shard after %d lines, remote job %s", ls.id, idx, st.State)
		}
	}
	// A cleanly-EOF'd full-length stream means the remote job reached a
	// terminal state, and the worker closes its trace log right after
	// the result log — so the span NDJSON fetched now is complete. A
	// short or broken stream never reaches this fetch; the requeued
	// shard delivers its spans instead, and the TraceMerger's per-unit
	// dedup absorbs any overlap exactly-once, like result lines.
	if j.tm != nil {
		spans, err := c.fetchTrace(sctx, ls, jobID)
		if err != nil {
			return st, err
		}
		if err := j.tm.Add(sh.base, spans); err != nil {
			return st, permanentf("dist: merge trace of shard %d from %s: %v", sh.base, ls.id, err)
		}
	}
	return st, nil
}

// fetchTrace retrieves a completed shard job's span NDJSON.
func (c *Coordinator) fetchTrace(ctx context.Context, ls lease, jobID string) ([]report.Span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ls.url+"/v1/jobs/"+jobID+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: fetch trace from %s: %w", ls.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: fetch trace from %s: status %d", ls.id, resp.StatusCode)
	}
	spans, err := report.DecodeSpans(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dist: decode trace from %s: %w", ls.id, err)
	}
	return spans, nil
}

// submit POSTs a job spec and returns the remote job ID. 503 maps to
// errBusy (healthy admission control), 4xx to a permanent error.
func (c *Coordinator) submit(ctx context.Context, baseURL string, spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("dist: submit to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "", errBusy
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return "", permanentf("dist: worker rejected the shard (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	default:
		return "", fmt.Errorf("dist: submit: status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("dist: submit response: %w", err)
	}
	if st.ID == "" {
		return "", fmt.Errorf("dist: submit response lacks a job id")
	}
	return st.ID, nil
}

// cancelRemote best-effort cancels a worker-side job.
func (c *Coordinator) cancelRemote(baseURL, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, baseURL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// remoteStatus fetches a worker-side job status.
func (c *Coordinator) remoteStatus(baseURL, jobID string) (serve.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}

// runLocal executes a shard in-process through the embedded server's
// own engines — the fallback that keeps a coordinator with no
// (surviving) workers behaving exactly like a single-node server, and
// the executor a stolen shard (Options.StealLocal) runs on. The
// sub-execution sees only the shard: its scripts, its lines forwarded
// into the merger at the shard base and its spans buffered for the
// TraceMerger. Its kind summary
// and verdict come back as the shard's status.
func (c *Coordinator) runLocal(ctx context.Context, j *jobRun, sh shardSpec, stolen bool) (serve.JobStatus, error) {
	if stolen {
		c.note(j, shardStolen, "")
		j.lg.Info("shard stolen by local executor", "shard", sh.base, "units", len(sh.names))
	} else {
		c.note(j, shardLocal, "")
		j.lg.Info("shard local", "shard", sh.base, "units", len(sh.names))
	}
	st := serve.JobStatus{State: serve.StateDone}
	sub := j.ex
	sub.Spec.Scripts = sh.names
	sub.OnCampaign, sub.OnShards = nil, nil
	sub.OnMutation = func(m serve.MutationStatus) { st.Mutation = &m }
	sub.OnExploration = func(x serve.ExplorationStatus) { st.Exploration = &x }
	sub.OnVet = func(v serve.VetStatus) { st.Vet = &v }
	sub.Logger = j.lg.With("shard", sh.base)
	idx := 0
	var ferr error
	sub.Log = writerFunc(func(p []byte) (int, error) {
		if ferr == nil {
			ferr = j.forward(sh.base+idx, bytes.TrimSuffix(p, []byte("\n")))
			idx++
		}
		if ferr != nil {
			return 0, ferr
		}
		return len(p), nil
	})
	var spans bytes.Buffer
	if j.tm != nil {
		sub.Trace = &spans
	}
	verdict, err := c.srv.ExecuteLocal(ctx, sub)
	if ferr != nil {
		return st, ferr
	}
	if err != nil {
		return st, err
	}
	if j.tm != nil {
		decoded, err := report.DecodeSpans(&spans)
		if err == nil {
			err = j.tm.Add(sh.base, decoded)
		}
		if err != nil {
			return st, permanentf("dist: merge trace of local shard %d: %v", sh.base, err)
		}
	}
	st.Verdict = verdict
	return st, nil
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
