package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"acd/internal/histogram"
)

// Endpoint labels used as report keys. "resolve" only appears when a
// background resolve cadence is configured.
const (
	EndpointRecords  = "records"
	EndpointAnswers  = "answers"
	EndpointClusters = "clusters"
	EndpointMetrics  = "metrics"
	EndpointResolve  = "resolve"
)

// Mix is the operation mix as integer weights (they need not sum to
// 100). An operation is drawn per request in proportion to its weight.
type Mix struct {
	// Records weights POST /records (a batch of RecordBatch records).
	Records int
	// Answers weights POST /answers (a batch of AnswerBatch answers to
	// random known pairs). Until two records are acked, answer draws
	// fall back to records operations — there is nothing to answer.
	Answers int
	// Clusters weights GET /clusters (snapshot read).
	Clusters int
	// Metrics weights GET /metrics (observability read).
	Metrics int
}

// total returns the sum of weights.
func (m Mix) total() int { return m.Records + m.Answers + m.Clusters + m.Metrics }

// Config parameterizes one load run against a live server.
type Config struct {
	// Target is the server's base URL ("http://127.0.0.1:8080").
	// Writes (records, answers, resolve) always go here.
	Target string
	// ReadTargets optionally routes the snapshot reads (GET /clusters,
	// GET /metrics) round-robin across these base URLs instead of
	// Target — the replica topology, where writes go to the leader and
	// stale-ok reads fan out over followers. Empty reads from Target.
	ReadTargets []string
	// Client issues the requests; nil builds one with a connection
	// pool sized for Concurrency.
	Client *http.Client
	// Mix is the operation mix (zero value = 60/20/15/5).
	Mix Mix
	// Arrival selects closed-loop or open-loop Poisson scheduling
	// (empty = closed).
	Arrival ArrivalKind
	// Rate is the open-loop arrival rate in ops/sec (ignored closed).
	Rate float64
	// Burst optionally modulates the open-loop rate.
	Burst *Burst
	// Concurrency is the worker count closed-loop, and the maximum
	// in-flight operations open-loop (default 16).
	Concurrency int
	// Warmup runs the workload without recording (default 0); Duration
	// is the measured window (required).
	Warmup   time.Duration
	Duration time.Duration
	// RecordBatch and AnswerBatch size the POST bodies (defaults 8/4).
	RecordBatch int
	AnswerBatch int
	// ResolveEvery runs POST /resolve on a background cadence (0 =
	// never) and reports it as its own endpoint.
	ResolveEvery time.Duration
	// ResolveEveryRecords also runs POST /resolve as soon as this many
	// records were acked since the last one was sent (0 = cadence
	// only). Writes wait out a resolve, so this bounds the backlog a
	// pass faces by work — the count plus what is in flight — however
	// fast the server ingests between two ticks.
	ResolveEveryRecords int
	// Pool is the record churn: consecutive records operations walk it
	// round-robin. Required when Mix.Records > 0 (SyntheticPool builds
	// one from internal/dataset).
	Pool []Payload
	// Seed drives arrival draws, op picks, churn order, and answer
	// pairs — the full request sequence.
	Seed int64
	// TrackPairs makes the generator remember every distinct answer
	// pair it has fully acked, so Counters.DistinctPairs is an exact
	// lower bound on the server's durable answer cache. The
	// crash-restart scenario needs it; it costs a map insert per
	// answer, so it is off by default.
	TrackPairs bool
}

// withDefaults validates and resolves the zero values.
func (c Config) withDefaults() (Config, error) {
	if c.Target == "" {
		return c, fmt.Errorf("load: Target required")
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("load: Duration must be positive")
	}
	if c.Mix.total() == 0 {
		c.Mix = Mix{Records: 60, Answers: 20, Clusters: 15, Metrics: 5}
	}
	if c.Mix.Records < 0 || c.Mix.Answers < 0 || c.Mix.Clusters < 0 || c.Mix.Metrics < 0 {
		return c, fmt.Errorf("load: negative mix weight: %+v", c.Mix)
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalClosed
	}
	if c.Arrival != ArrivalClosed && c.Arrival != ArrivalPoisson {
		return c, fmt.Errorf("load: unknown arrival process %q", c.Arrival)
	}
	if c.Concurrency == 0 {
		c.Concurrency = 16
	}
	if c.Concurrency < 0 {
		return c, fmt.Errorf("load: negative concurrency")
	}
	if c.RecordBatch <= 0 {
		c.RecordBatch = 8
	}
	if c.AnswerBatch <= 0 {
		c.AnswerBatch = 4
	}
	if (c.Mix.Records > 0 || c.Mix.Answers > 0) && len(c.Pool) == 0 {
		return c, fmt.Errorf("load: record/answer operations need a churn Pool")
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        c.Concurrency * 2,
				MaxIdleConnsPerHost: c.Concurrency * 2,
			},
		}
	}
	return c, nil
}

// Payload is one record as POSTed to /records.
type Payload struct {
	// Fields are the record's named attribute values.
	Fields map[string]string `json:"fields"`
	// Entity is the optional ground-truth label.
	Entity string `json:"entity,omitempty"`
}

// Counters is a live progress snapshot, readable while Run is in
// flight (the crash-restart scenario reads it at the instant it copies
// the journal, to know the acked floor a recovery must preserve).
type Counters struct {
	// IssuedRecords / AckedRecords count records sent and acked (an
	// ack is the server's 200 with assigned ids, which follows the WAL
	// fsync). Issued counts are recorded before the request is sent.
	IssuedRecords int64
	AckedRecords  int64
	// IssuedAnswers / AckedAnswers are the same for answers.
	IssuedAnswers int64
	AckedAnswers  int64
	// Known is the generator's record-count high-water mark (max acked
	// id + 1).
	Known int64
	// MaxInFlight is the peak concurrent operations observed.
	MaxInFlight int64
	// DistinctPairs counts distinct fully-acked answer pairs (only
	// maintained when Config.TrackPairs is set). The server's answer
	// cache keys by pair, so after recovery it must hold at least this
	// many answers.
	DistinctPairs int64
}

// opKind enumerates the drawable operations.
type opKind int

const (
	opRecords opKind = iota
	opAnswers
	opClusters
	opMetrics
)

// name returns the endpoint label of an op.
func (o opKind) name() string {
	switch o {
	case opRecords:
		return EndpointRecords
	case opAnswers:
		return EndpointAnswers
	case opClusters:
		return EndpointClusters
	default:
		return EndpointMetrics
	}
}

// opSpec is one fully-drawn operation: the kind plus every random
// parameter it needs, pre-drawn so execution itself never touches a
// shared RNG.
type opSpec struct {
	kind  opKind
	pairs []answerSpec // opAnswers
}

// answerSpec is one pre-drawn answer: the uniform draws that become a
// concrete (lo, hi, fc) once the known record count is fixed at
// execution time.
type answerSpec struct {
	u1, u2, fc float64
}

// epStats accumulates one endpoint's measured window.
type epStats struct {
	hist *histogram.Latency
	ops  atomic.Int64
	errs atomic.Int64
}

// Generator drives one configured workload. Create with New, run once
// with Run.
type Generator struct {
	cfg Config

	measuring atomic.Bool
	stats     map[string]*epStats // fixed key set after New; values are atomic

	cursor      atomic.Int64 // churn pool position
	readCursor  atomic.Int64 // ReadTargets round-robin position
	known       atomic.Int64 // contiguous acked-record prefix (see ackIDs)
	ackMu       sync.Mutex
	ackedIDs    map[int64]struct{} // acked ids at or beyond the known prefix
	inflight    atomic.Int64
	maxInflight atomic.Int64
	warmupOps   atomic.Int64

	sinceResolve atomic.Int64  // records acked since the last resolve was sent
	resolveDue   chan struct{} // ResolveEveryRecords reached; holds at most one kick

	issuedRecords atomic.Int64
	ackedRecords  atomic.Int64
	issuedAnswers atomic.Int64
	ackedAnswers  atomic.Int64

	pairs         sync.Map // pairKey → struct{}, when TrackPairs
	distinctPairs atomic.Int64
}

// pairKey identifies one answer pair in the TrackPairs map.
type pairKey struct{ lo, hi int64 }

// New validates cfg and builds a generator.
func New(cfg Config) (*Generator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, stats: map[string]*epStats{}, ackedIDs: map[int64]struct{}{}, resolveDue: make(chan struct{}, 1)}
	for _, ep := range []string{EndpointRecords, EndpointAnswers, EndpointClusters, EndpointMetrics, EndpointResolve} {
		g.stats[ep] = &epStats{hist: histogram.NewLatency()}
	}
	return g, nil
}

// Counters returns a live progress snapshot.
func (g *Generator) Counters() Counters {
	return Counters{
		IssuedRecords: g.issuedRecords.Load(),
		AckedRecords:  g.ackedRecords.Load(),
		IssuedAnswers: g.issuedAnswers.Load(),
		AckedAnswers:  g.ackedAnswers.Load(),
		Known:         g.known.Load(),
		MaxInFlight:   g.maxInflight.Load(),
		DistinctPairs: g.distinctPairs.Load(),
	}
}

// draw picks the next operation from rng per the mix weights,
// pre-drawing every random parameter the op will need.
func (g *Generator) draw(rng *rand.Rand) opSpec {
	n := rng.Intn(g.cfg.Mix.total())
	var kind opKind
	switch {
	case n < g.cfg.Mix.Records:
		kind = opRecords
	case n < g.cfg.Mix.Records+g.cfg.Mix.Answers:
		kind = opAnswers
	case n < g.cfg.Mix.Records+g.cfg.Mix.Answers+g.cfg.Mix.Clusters:
		kind = opClusters
	default:
		kind = opMetrics
	}
	spec := opSpec{kind: kind}
	if kind == opAnswers {
		spec.pairs = make([]answerSpec, g.cfg.AnswerBatch)
		for i := range spec.pairs {
			spec.pairs[i] = answerSpec{u1: rng.Float64(), u2: rng.Float64(), fc: rng.Float64()}
		}
	}
	return spec
}

// Run executes the workload: Warmup unrecorded, then Duration measured,
// then returns the report. Cancelling ctx stops the run early; the
// report then covers the measured window up to the cancellation.
func (g *Generator) Run(ctx context.Context) (*Report, error) {
	runCtx, stop := context.WithCancel(ctx)
	defer stop()

	var wg sync.WaitGroup
	if g.cfg.ResolveEvery > 0 || g.cfg.ResolveEveryRecords > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.resolveLoop(runCtx)
		}()
	}
	switch g.cfg.Arrival {
	case ArrivalClosed:
		for w := 0; w < g.cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(g.cfg.Seed + int64(w)*1_000_003))
				for runCtx.Err() == nil {
					g.execute(runCtx, g.draw(rng))
				}
			}(w)
		}
	case ArrivalPoisson:
		sched, err := NewSchedule(g.cfg.Seed, g.cfg.Rate, g.cfg.Burst)
		if err != nil {
			stop()
			wg.Wait()
			return nil, err
		}
		rng := rand.New(rand.NewSource(g.cfg.Seed + 7_777_777))
		sem := make(chan struct{}, g.cfg.Concurrency)
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				timer.Reset(sched.Next())
				select {
				case <-runCtx.Done():
					return
				case <-timer.C:
				}
				spec := g.draw(rng)
				// Block for a slot: the schedule slips when the server
				// cannot absorb the offered rate (recorded latencies
				// then under-report queueing — coordinated omission —
				// which docs/serving.md tells readers how to interpret).
				select {
				case <-runCtx.Done():
					return
				case sem <- struct{}{}:
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					g.execute(runCtx, spec)
				}()
			}
		}()
	}

	warmupEnd := time.After(g.cfg.Warmup)
	if g.cfg.Warmup == 0 {
		warmupEnd = nil
		g.measuring.Store(true)
	}
	measureStart := time.Now()
	if warmupEnd != nil {
		select {
		case <-ctx.Done():
			stop()
			wg.Wait()
			return nil, ctx.Err()
		case <-warmupEnd:
			g.measuring.Store(true)
			measureStart = time.Now()
		}
	}
	select {
	case <-ctx.Done():
	case <-time.After(g.cfg.Duration):
	}
	measured := time.Since(measureStart)
	stop()
	wg.Wait()
	return g.report(measured), nil
}

// resolveLoop POSTs /resolve on the configured cadence, and whenever
// ResolveEveryRecords records have been acked, until ctx ends.
func (g *Generator) resolveLoop(ctx context.Context) {
	var tick <-chan time.Time // never fires without a cadence
	if g.cfg.ResolveEvery > 0 {
		t := time.NewTicker(g.cfg.ResolveEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case <-g.resolveDue:
		}
		g.sinceResolve.Store(0)
		t0 := time.Now()
		err := g.post(ctx, "/resolve", nil, nil)
		if ctx.Err() != nil && err != nil {
			return // shutdown race, not a server error
		}
		g.record(EndpointResolve, time.Since(t0), err)
	}
}

// execute issues one drawn operation and records its latency.
func (g *Generator) execute(ctx context.Context, spec opSpec) {
	in := g.inflight.Add(1)
	for {
		cur := g.maxInflight.Load()
		if in <= cur || g.maxInflight.CompareAndSwap(cur, in) {
			break
		}
	}
	defer g.inflight.Add(-1)

	// An answers draw before two records are acked has nothing legal to
	// say; it degrades to a records op (counted as one).
	if spec.kind == opAnswers && g.known.Load() < 2 {
		spec = opSpec{kind: opRecords}
	}

	var err error
	t0 := time.Now()
	switch spec.kind {
	case opRecords:
		err = g.doRecords(ctx)
	case opAnswers:
		err = g.doAnswers(ctx, spec.pairs)
	case opClusters:
		err = g.get(ctx, g.readTarget(), "/clusters")
	case opMetrics:
		err = g.get(ctx, g.readTarget(), "/metrics")
	}
	if ctx.Err() != nil && err != nil {
		return // shutdown race, not a server error
	}
	g.record(spec.kind.name(), time.Since(t0), err)
}

// record books one completed operation into the measured stats (or the
// warmup tally before the measured window opens).
func (g *Generator) record(endpoint string, d time.Duration, err error) {
	if !g.measuring.Load() {
		g.warmupOps.Add(1)
		return
	}
	st := g.stats[endpoint]
	st.ops.Add(1)
	if err != nil {
		st.errs.Add(1)
		return
	}
	st.hist.Observe(d)
}

// doRecords POSTs the next churn batch and advances the known
// high-water mark from the acked ids.
func (g *Generator) doRecords(ctx context.Context) error {
	base := g.cursor.Add(int64(g.cfg.RecordBatch)) - int64(g.cfg.RecordBatch)
	batch := make([]Payload, g.cfg.RecordBatch)
	for i := range batch {
		batch[i] = g.cfg.Pool[(base+int64(i))%int64(len(g.cfg.Pool))]
	}
	g.issuedRecords.Add(int64(len(batch)))
	var resp struct {
		IDs []int64 `json:"ids"`
	}
	err := g.post(ctx, "/records", map[string]any{"records": batch}, &resp)
	if err != nil {
		return err
	}
	g.ackedRecords.Add(int64(len(resp.IDs)))
	g.ackIDs(resp.IDs)
	if n := int64(g.cfg.ResolveEveryRecords); n > 0 {
		// The swap lets exactly one worker claim each n records.
		if v := g.sinceResolve.Add(int64(len(resp.IDs))); v >= n && g.sinceResolve.CompareAndSwap(v, 0) {
			select {
			case g.resolveDue <- struct{}{}:
			default: // a kick is already waiting for the loop
			}
		}
	}
	return nil
}

// ackIDs folds freshly-acked record ids into the known watermark. With
// a sharded server, acks complete out of order (id 184 can ack before
// id 150 whose home shard is busier), so `known` advances only over the
// CONTIGUOUS acked prefix — every id below it is durably applied, which
// is what makes drawing answer pairs from [0, known) always valid.
func (g *Generator) ackIDs(ids []int64) {
	g.ackMu.Lock()
	for _, id := range ids {
		g.ackedIDs[id] = struct{}{}
	}
	k := g.known.Load()
	for {
		if _, ok := g.ackedIDs[k]; !ok {
			break
		}
		delete(g.ackedIDs, k)
		k++
	}
	g.known.Store(k)
	g.ackMu.Unlock()
}

// doAnswers materializes the pre-drawn answer specs against the current
// known record count and POSTs them.
func (g *Generator) doAnswers(ctx context.Context, specs []answerSpec) error {
	known := g.known.Load()
	type answer struct {
		Lo     int64   `json:"lo"`
		Hi     int64   `json:"hi"`
		FC     float64 `json:"fc"`
		Source string  `json:"source"`
	}
	answers := make([]answer, len(specs))
	for i, s := range specs {
		lo := int64(s.u1 * float64(known-1)) // [0, known-1)
		hi := lo + 1 + int64(s.u2*float64(known-lo-1))
		if hi >= known {
			hi = known - 1
		}
		if hi <= lo { // known == 2 edge
			lo, hi = 0, 1
		}
		answers[i] = answer{Lo: lo, Hi: hi, FC: s.fc, Source: "acdload"}
	}
	g.issuedAnswers.Add(int64(len(answers)))
	var resp struct {
		Accepted int64 `json:"accepted"`
	}
	if err := g.post(ctx, "/answers", map[string]any{"answers": answers}, &resp); err != nil {
		return err
	}
	g.ackedAnswers.Add(resp.Accepted)
	// Only a fully-acked batch lets us credit each pair as durable; a
	// journal-failure prefix would need the error body's committed
	// count, which the error path doesn't parse — under-counting is the
	// safe direction for a durability floor.
	if g.cfg.TrackPairs && resp.Accepted == int64(len(answers)) {
		for _, a := range answers {
			if _, loaded := g.pairs.LoadOrStore(pairKey{a.Lo, a.Hi}, struct{}{}); !loaded {
				g.distinctPairs.Add(1)
			}
		}
	}
	return nil
}

// post issues one POST with a JSON body (nil = empty) and decodes the
// response into out (nil = drained and discarded). Non-200 statuses
// are errors.
func (g *Generator) post(ctx context.Context, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.Target+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return g.send(req, out)
}

// readTarget picks the base URL for the next snapshot read.
func (g *Generator) readTarget() string {
	if len(g.cfg.ReadTargets) == 0 {
		return g.cfg.Target
	}
	n := g.readCursor.Add(1) - 1
	return g.cfg.ReadTargets[int(n%int64(len(g.cfg.ReadTargets)))]
}

// get issues one GET against base and drains the response.
func (g *Generator) get(ctx context.Context, base, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	return g.send(req, nil)
}

// send executes the request, enforcing a 200 and fully draining the
// body so connections return to the pool.
func (g *Generator) send(req *http.Request, out any) error {
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for connection reuse
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
