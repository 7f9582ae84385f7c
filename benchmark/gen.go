package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/rand"

	"acd/internal/dataset"
)

// opKind names one request type of the serving API.
type opKind int

const (
	opRecords opKind = iota
	opAnswers
	opResolve
	opClusters
	numOpKinds
)

// String returns the endpoint name the kind's metrics are reported under.
func (k opKind) String() string {
	return [...]string{"records", "answers", "resolve", "clusters"}[k]
}

// payload is one generated record: the fields sent to the program under
// test and the ground-truth entity the benchmark keeps for itself.
type payload struct {
	fields map[string]string
	entity int
}

// answer is one pre-drawn crowd answer. In a plan lo and hi are pool
// positions; the driver translates them to the ids the program under
// test assigned just before sending.
type answer struct {
	lo, hi int
	fc     float64
}

// op is one pre-drawn request: a records op posts pool[recLo:recHi), an
// answers op posts answers; resolve and clusters carry nothing.
type op struct {
	kind    opKind
	recLo   int
	recHi   int
	answers []answer
}

// plan is everything a serving workload sends, drawn from the seed
// before the clock starts: the record pool, an untimed preload, the
// measured op sequence of each client, and the epilogue probe that
// supplies the op kinds the measured phase lacks.
type plan struct {
	pool    []payload
	preload []op   // sequential, untimed (part of set-up)
	clients [][]op // measured phase, one closed-loop sequence per client
	probe   []op   // sequential epilogue, timed per op only
}

// recordsPerPost and answersPerPost are the request sizes every
// workload uses.
const (
	recordsPerPost = 8
	answersPerPost = 4
)

// flipRate is the share of pre-drawn crowd answers that contradict the
// ground truth.
const flipRate = 0.05

// syntheticPool draws records over entities from internal/dataset's
// generic generator and shuffles them, so duplicates of one entity
// arrive spread over the run and not back to back.
func syntheticPool(records, entities int, skew float64, seed int64) ([]payload, error) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		Records: records, Entities: entities, Skew: skew, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return shuffledPool(d, seed), nil
}

// shuffledPool turns a dataset (which lists each entity's records back
// to back) into a pool in seeded random order.
func shuffledPool(d *dataset.Dataset, seed int64) []payload {
	pool := make([]payload, len(d.Records))
	for i, r := range d.Records {
		pool[i] = payload{fields: r.Fields, entity: r.Entity}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// recordPosts cuts pool[lo:hi) into posts of per records each.
func recordPosts(lo, hi, per int) []op {
	var ops []op
	for at := lo; at < hi; at += per {
		end := at + per
		if end > hi {
			end = hi
		}
		ops = append(ops, op{kind: opRecords, recLo: at, recHi: end})
	}
	return ops
}

// truthAnswers draws n distinct answers for the records pool[lo:hi)
// against records at smaller pool positions. Each new record is first
// paired with one earlier record of its entity when one exists; the
// remainder pair new records with random earlier records of other
// entities. flipRate of the answers are flipped.
func truthAnswers(pool []payload, lo, hi, n int, rng *rand.Rand, seen map[[2]int]bool) []answer {
	lastOf := make(map[int]int) // entity -> latest earlier position
	for i := 0; i < lo; i++ {
		lastOf[pool[i].entity] = i
	}
	out := make([]answer, 0, n)
	add := func(a, b int) { // a < b always: b is the new record
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			out = append(out, drawAnswer(pool, a, b, rng))
		}
	}
	for i := lo; i < hi && len(out) < n; i++ {
		if prev, ok := lastOf[pool[i].entity]; ok {
			add(prev, i)
		}
		lastOf[pool[i].entity] = i
	}
	for tries := 0; len(out) < n && tries < 20*n && hi > 1; tries++ {
		i := lo + rng.Intn(hi-lo)
		if i == 0 {
			continue
		}
		j := rng.Intn(i)
		if pool[i].entity != pool[j].entity {
			add(j, i)
		}
	}
	return out
}

// answerPosts cuts answers into posts of answersPerPost.
func answerPosts(as []answer) []op {
	var ops []op
	for at := 0; at < len(as); at += answersPerPost {
		end := at + answersPerPost
		if end > len(as) {
			end = len(as)
		}
		ops = append(ops, op{kind: opAnswers, answers: as[at:end]})
	}
	return ops
}

// repeatOp returns n copies of a body-less op (resolve, clusters).
func repeatOp(kind opKind, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].kind = kind
	}
	return ops
}

// probeOps draws the epilogue probe over the records the workload has
// already loaded (pool[:loaded]) plus fresh ones from pool[loaded:]: for
// every op kind in need it issues enough sequential requests to support
// the kind's median. Each resolve probe follows one record post and one
// answer post, so every pass has a delta to fold.
func probeOps(pool []payload, loaded int, need [numOpKinds]bool, sz sizes, rng *rand.Rand) []op {
	var ops []op
	at := loaded
	seen := make(map[[2]int]bool)
	takeRecords := func(n int) []op {
		end := at + n
		if end > len(pool) {
			end = len(pool)
		}
		posts := recordPosts(at, end, recordsPerPost)
		at = end
		return posts
	}
	if need[opRecords] {
		ops = append(ops, takeRecords(sz.ProbeRecords*recordsPerPost)...)
	}
	if need[opAnswers] {
		ops = append(ops, answerPosts(truthAnswers(pool, 1, at, sz.ProbeAnswers*answersPerPost, rng, seen))...)
	}
	if need[opResolve] {
		for i := 0; i < sz.ProbeResolves; i++ {
			lo := at
			ops = append(ops, takeRecords(recordsPerPost)...)
			if at > lo {
				ops = append(ops, answerPosts(truthAnswers(pool, lo, at, answersPerPost, rng, seen))...)
			}
			ops = append(ops, op{kind: opResolve})
		}
	}
	if need[opClusters] {
		ops = append(ops, repeatOp(opClusters, sz.ProbeClusters)...)
	}
	return ops
}

// hash folds the complete op sequence — every record's text, every
// answer, the client split — into one digest. Two plans with the same
// hash send the program under test byte-identical inputs in the same
// per-client order.
func (p *plan) hash() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putOps := func(tag int64, ops []op) {
		put(tag)
		put(int64(len(ops)))
		for _, o := range ops {
			put(int64(o.kind))
			put(int64(o.recLo))
			put(int64(o.recHi))
			for _, a := range o.answers {
				put(int64(a.lo))
				put(int64(a.hi))
				put(int64(a.fc * 3))
			}
		}
	}
	put(int64(len(p.pool)))
	for _, r := range p.pool {
		put(int64(r.entity))
		h.Write([]byte(r.fields["text"]))
		h.Write([]byte{0})
	}
	putOps(-1, p.preload)
	for i, c := range p.clients {
		putOps(int64(i), c)
	}
	putOps(-2, p.probe)
	return hex.EncodeToString(h.Sum(nil))
}

// planIngest is ingest-durable: the pool cut into posts, dealt
// round-robin to the clients. The probe supplies answers, resolves and
// reads against the state the ingest built.
func planIngest(sz sizes, seed int64) (*plan, error) {
	probeRecords := sz.ProbeResolves * recordsPerPost
	pool, err := syntheticPool(sz.IngestRecords+probeRecords, sz.IngestEntities, 0, seed)
	if err != nil {
		return nil, err
	}
	p := &plan{pool: pool, clients: make([][]op, clients)}
	for i, o := range recordPosts(0, sz.IngestRecords, recordsPerPost) {
		p.clients[i%clients] = append(p.clients[i%clients], o)
	}
	return p, nil
}

// planCrowdLoop is crowd-loop: one sequential client, so pool position
// equals global id and every count repeats exactly.
func planCrowdLoop(sz sizes, seed int64) (*plan, error) {
	perWave := sz.WavePosts * recordsPerPost
	total := sz.Waves * perWave
	pool, err := syntheticPool(total, sz.LoopEntities, 0, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc10d))
	seen := make(map[[2]int]bool)
	p := &plan{pool: pool, clients: make([][]op, 1)}
	for w := 0; w < sz.Waves; w++ {
		lo, hi := w*perWave, (w+1)*perWave
		ops := recordPosts(lo, hi, recordsPerPost)
		ops = append(ops, answerPosts(truthAnswers(pool, lo, hi, sz.WaveAnswerPosts*answersPerPost, rng, seen))...)
		ops = append(ops, op{kind: opResolve})
		p.clients[0] = append(p.clients[0], ops...)
	}
	p.probe = repeatOp(opClusters, sz.ProbeClusters)
	return p, nil
}

// mixRound is serve-mixed's mix as exact counts per round of 100 ops,
// 50 from each of the two clients: 58 % reads, 25 % record posts, 15 %
// answer posts, 2 % resolves. Every seed issues exactly these counts.
// Both resolves of a round sit at fixed places in client 0's half — its
// 25th and 50th op — so each pass folds a delta of the same size
// whatever the seed (two clients resolving on their own clocks drift
// into each other, and a resolve right behind another finds nothing to
// do); only the order of the other 98 ops is drawn.
var mixRound = [numOpKinds]int{opClusters: 58, opRecords: 25, opAnswers: 15, opResolve: 2}

// mixHalf is one client's share of a round.
const mixHalf = 50

// planServeMixed is serve-mixed: a sequential preload plus one resolve
// (set-up), then per-client op sequences drawn round by round from the
// mix. Record posts walk one shared cursor dealt in draw order, so the
// pool is consumed identically however the clients interleave; answers
// are drawn over the preloaded records only, whose ids are fixed.
func planServeMixed(sz sizes, seed int64) (*plan, error) {
	pool, err := syntheticPool(sz.Preload+clients*sz.MixedOps*recordsPerPost, sz.MixedEntities, 0, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x3a1d))
	p := &plan{pool: pool, clients: make([][]op, clients)}
	p.preload = append(recordPosts(0, sz.Preload, sz.PreloadPost), op{kind: opResolve})
	seen := make(map[[2]int]bool)
	byEntity := make(map[int][]int)
	for i := 0; i < sz.Preload; i++ {
		byEntity[pool[i].entity] = append(byEntity[pool[i].entity], i)
	}
	cursor := sz.Preload
	draw := func(k opKind) op {
		o := op{kind: k}
		switch k {
		case opRecords:
			o.recLo, o.recHi = cursor, cursor+recordsPerPost
			cursor += recordsPerPost
		case opAnswers:
			o.answers = mixedAnswers(pool, sz.Preload, byEntity, rng, seen)
		}
		return o
	}
	for done := 0; done < sz.MixedOps; done += mixHalf {
		var kinds []opKind
		for k, n := range mixRound {
			for ; n > 0 && opKind(k) != opResolve; n-- {
				kinds = append(kinds, opKind(k))
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		half := mixHalf
		if room := sz.MixedOps - done; room < half {
			half = room
		}
		for slot := 0; slot < half; slot++ {
			for c := range p.clients {
				k := opResolve
				if c != 0 || (slot+1)%(mixHalf/mixRound[opResolve]) != 0 {
					k, kinds = kinds[0], kinds[1:]
				}
				p.clients[c] = append(p.clients[c], draw(k))
			}
		}
	}
	p.pool = pool[:cursor]
	// One closing resolve, so the accuracy figure judges a clustering
	// that has seen every record and not the tail since the last pass.
	p.probe = []op{{kind: opResolve}}
	return p, nil
}

// mixedAnswers draws one post of answers over the preloaded records:
// even slots pair a record with another of its entity when it has one,
// odd slots pair records of different entities.
func mixedAnswers(pool []payload, preload int, byEntity map[int][]int, rng *rand.Rand, seen map[[2]int]bool) []answer {
	var out []answer
	for tries := 0; len(out) < answersPerPost && tries < 200; tries++ {
		a, b := rng.Intn(preload), rng.Intn(preload)
		if mates := byEntity[pool[a].entity]; len(out)%2 == 0 && len(mates) > 1 {
			b = mates[rng.Intn(len(mates))]
		}
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, drawAnswer(pool, a, b, rng))
	}
	return out
}

// drawAnswer answers the pair of pool positions (a < b) from the ground
// truth, flipped with probability flipRate.
func drawAnswer(pool []payload, a, b int, rng *rand.Rand) answer {
	fc := 0.0
	if pool[a].entity == pool[b].entity {
		fc = 1.0
	}
	if rng.Float64() < flipRate {
		fc = 1 - fc
	}
	return answer{lo: a, hi: b, fc: fc}
}

// oracle is the batch workload's crowd: a deterministic majority of
// three workers over the ground truth, each worker wrong with
// probability workerError, decided per pair by hash in O(1) with no
// prebuilt answer table.
type oracle struct {
	truth []int
	seed  int64
	calls int64
}

// workerError is each simulated worker's error probability.
const workerError = 0.05

// score returns the fraction of the three workers who call (i, j) a
// duplicate and counts the invocation.
func (o *oracle) score(i, j int) float64 {
	o.calls++
	same := o.truth[i] == o.truth[j]
	yes := 0
	for w := 0; w < 3; w++ {
		h := fnv.New64a()
		var b [28]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(o.seed))
		binary.LittleEndian.PutUint64(b[8:], uint64(i))
		binary.LittleEndian.PutUint64(b[16:], uint64(j))
		binary.LittleEndian.PutUint32(b[24:], uint32(w))
		h.Write(b[:])
		wrong := float64(h.Sum64()>>11)/float64(1<<53) < workerError
		if same != wrong {
			yes++
		}
	}
	return float64(yes) / 3
}
