package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acd/internal/cluster"
	"acd/internal/incremental"
	"acd/internal/record"
)

// span is one timed call into a layer, kept in memory and written to
// benchmark/out/ when a traced run ends.
type span struct {
	Rung    string `json:"rung"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Client  int    `json:"client"`
	Seq     int    `json:"seq"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer collects spans; a nil tracer records nothing, which is how
// untraced runs pay nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s.StartNS, s.DurNS = start.Sub(t.epoch).Nanoseconds(), d.Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// idMap translates pool positions to the global ids the program under
// test assigned. With one client it is the identity; with two, ids
// follow the interleaving and are learned from the acks.
type idMap struct {
	mu     sync.Mutex
	idOf   []int // pool position -> id, -1 until acked
	posOf  []int // id -> pool position, -1 for ids never acked to us
	acked  int
	dupIDs int // ids acked twice or out of range: a server bug
}

func newIDMap(pool int) *idMap {
	m := &idMap{idOf: make([]int, pool), posOf: make([]int, pool)}
	for i := range m.idOf {
		m.idOf[i], m.posOf[i] = -1, -1
	}
	return m
}

func (m *idMap) learn(posLo int, ids []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, id := range ids {
		if id < 0 || id >= len(m.posOf) || m.posOf[id] != -1 {
			m.dupIDs++
			continue
		}
		m.posOf[id] = posLo + k
		m.idOf[posLo+k] = id
		m.acked++
	}
}

// translate maps an answer from pool positions to ids, ordered lo < hi.
func (m *idMap) translate(a answer) (answer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lo, hi := m.idOf[a.lo], m.idOf[a.hi]
	if lo < 0 || hi < 0 {
		return a, false
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	return answer{lo: lo, hi: hi, fc: a.fc}, true
}

// entities returns the ground-truth entity of every acked id, indexed by
// id; dense is false when the acked ids are not exactly 0..acked-1.
func (m *idMap) entities(pool []payload) (entity []int, dense bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entity = make([]int, m.acked)
	for id := range entity {
		pos := m.posOf[id]
		if pos < 0 {
			return nil, false
		}
		entity[id] = pool[pos].entity
	}
	return entity, m.dupIDs == 0
}

// phase is the outcome of driving one op sequence against one target.
type phase struct {
	wall      time.Duration
	latMS     [numOpKinds][]float64 // per successful op, in issue order per client
	attempted int
	failed    int
	firstErr  error

	ackedRecords    int
	postedAnswers   int
	acceptedAnswers int
	knownAtLastPost int // server's answer-cache size after the last answers post
	askedBeforeLast int // Σ QuestionsAsked of resolves finished before that post
	resolves        []incremental.ResolveStats
	clusterBytes    int64 // Σ response bytes of cluster reads
	maxInflight     int32
	adds            []addSample
}

// addSample is one records op's cost per record, keyed by the op's
// pool cursor (which orders ops by issue).
type addSample struct {
	pos         int
	perRecordNS float64
}

// merge folds another phase's samples and counts into p (wall excluded).
func (p *phase) merge(q *phase) {
	for k := range p.latMS {
		p.latMS[k] = append(p.latMS[k], q.latMS[k]...)
	}
	p.attempted += q.attempted
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.ackedRecords += q.ackedRecords
	p.postedAnswers += q.postedAnswers
	p.acceptedAnswers += q.acceptedAnswers
	p.resolves = append(p.resolves, q.resolves...)
	p.clusterBytes += q.clusterBytes
}

// drive runs each client's sequence as a closed loop — the next request
// goes out when the previous one has been answered — and returns when
// every client is done. Every op is timed from just before the call to
// just after; a failed op counts as attempted and failed and
// contributes no latency.
func drive(rung string, t target, pl *plan, clients [][]op, ids *idMap, tr *tracer) *phase {
	out := &phase{}
	var mu sync.Mutex
	var inflight, maxInflight atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	for c, ops := range clients {
		wg.Add(1)
		go func(c int, ops []op) {
			defer wg.Done()
			local := &phase{}
			var askedSoFar int
			for seq, o := range ops {
				n := inflight.Add(1)
				for {
					m := maxInflight.Load()
					if n <= m || maxInflight.CompareAndSwap(m, n) {
						break
					}
				}
				err := runOp(rung, t, pl, o, ids, tr, c, seq, local, &askedSoFar)
				inflight.Add(-1)
				local.attempted++
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = fmt.Errorf("client %d op %d (%s): %w", c, seq, o.kind, err)
					}
				}
			}
			mu.Lock()
			out.merge(local)
			out.adds = append(out.adds, local.adds...)
			if local.postedAnswers > 0 {
				out.knownAtLastPost, out.askedBeforeLast = local.knownAtLastPost, local.askedBeforeLast
			}
			mu.Unlock()
		}(c, ops)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.maxInflight = maxInflight.Load()
	return out
}

// runOp issues one op and books its outcome into local.
func runOp(rung string, t target, pl *plan, o op, ids *idMap, tr *tracer, c, seq int, local *phase, asked *int) error {
	var err error
	var begin time.Time
	var d time.Duration
	switch o.kind {
	case opRecords:
		recs := pl.pool[o.recLo:o.recHi]
		var got []int
		begin = time.Now()
		got, err = t.records(recs)
		d = time.Since(begin)
		if err == nil && len(got) != len(recs) {
			err = fmt.Errorf("acked %d of %d records", len(got), len(recs))
		}
		if err == nil {
			ids.learn(o.recLo, got)
			local.ackedRecords += len(got)
			local.adds = append(local.adds, addSample{pos: o.recLo, perRecordNS: float64(d.Nanoseconds()) / float64(len(recs))})
		}
	case opAnswers:
		as := make([]answer, 0, len(o.answers))
		for _, a := range o.answers {
			ta, ok := ids.translate(a)
			if !ok {
				return fmt.Errorf("answer references unacked pool position (%d,%d)", a.lo, a.hi)
			}
			as = append(as, ta)
		}
		var accepted, known int
		begin = time.Now()
		accepted, known, err = t.answers(as)
		d = time.Since(begin)
		local.postedAnswers += len(as)
		local.acceptedAnswers += accepted
		if err == nil {
			local.knownAtLastPost, local.askedBeforeLast = known, *asked
		}
	case opResolve:
		var st incremental.ResolveStats
		begin = time.Now()
		st, err = t.resolve()
		d = time.Since(begin)
		if err == nil {
			local.resolves = append(local.resolves, st)
			*asked += st.QuestionsAsked
		}
	case opClusters:
		var v clustersView
		begin = time.Now()
		v, err = t.clusters()
		d = time.Since(begin)
		if err == nil {
			local.clusterBytes += int64(v.bytes)
		}
	}
	if err != nil {
		return err
	}
	local.latMS[o.kind] = append(local.latMS[o.kind], float64(d.Nanoseconds())/1e6)
	tr.add(span{Rung: rung, Layer: rung, Name: o.kind.String(), Client: c, Seq: seq}, begin, d)
	return nil
}

// toClustering converts a served clustering, verifying on the way that
// it covers ids 0..n-1 exactly once.
func toClustering(clusters [][]int, n int) (*cluster.Clustering, error) {
	sets := make([][]record.ID, len(clusters))
	for i, set := range clusters {
		sets[i] = make([]record.ID, len(set))
		for j, id := range set {
			sets[i][j] = record.ID(id)
		}
	}
	return cluster.FromSets(n, sets)
}

// checkPartition verifies that clusters cover ids 0..n-1 exactly once.
func checkPartition(clusters [][]int, n int) error {
	_, err := toClustering(clusters, n)
	return err
}

// pairF1 scores a clustering of ids 0..len(entity)-1 against their
// ground-truth labels with the repository's own pairwise evaluator (the
// one acd.Result.F1 reports); 0 when the clustering is no partition.
func pairF1(clusters [][]int, entity []int) float64 {
	c, err := toClustering(clusters, len(entity))
	if err != nil {
		return 0
	}
	return cluster.Evaluate(c, entity).F1
}
