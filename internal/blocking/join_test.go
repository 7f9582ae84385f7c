package blocking

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"acd/internal/dataset"
	"acd/internal/obs"
	"acd/internal/record"
	"acd/internal/similarity"
)

// parallelisms are the worker counts every equivalence property is
// checked under: one worker of the same code, and real fan-outs
// (including counts above this machine's core count).
var parallelisms = []int{1, 2, 4, 8}

// randomRecords draws a record set with a small vocabulary so that token
// collisions — and therefore candidate pairs — are plentiful. Includes
// occasional empty-text records, the join's main edge case.
func randomRecords(rng *rand.Rand, maxN int) []record.Record {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	n := 2 + rng.Intn(maxN)
	recs := make([]record.Record, n)
	for i := range recs {
		text := ""
		if rng.Intn(12) != 0 { // 1-in-12 records are empty
			k := 1 + rng.Intn(6)
			for w := 0; w < k; w++ {
				text += vocab[rng.Intn(len(vocab))] + " "
			}
		}
		recs[i] = record.New(record.ID(i), map[string]string{"t": text})
	}
	return recs
}

func randomTau(rng *rand.Rand) float64 {
	return []float64{0, 0.1, 0.3, 0.5, 0.8}[rng.Intn(5)]
}

// equalScored reports exact equality: same pairs, same scores (bit-for-
// bit), same order.
func equalScored(a, b []ScoredPair) bool {
	return reflect.DeepEqual(a, b)
}

// TestJaccardJoinParallelMatchesSequential is the concurrency analogue
// of the Lemma 2 equivalence test in internal/core/pivot_test.go: for
// randomized record sets, the join's output must be exactly equal —
// pairs, scores, and order — to the naive all-pairs scan at every
// parallelism level, so one worker and many agree with the oracle and
// with each other.
func TestJaccardJoinParallelMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, 40)
		tau := randomTau(rng)
		want := naiveJaccard(recs, tau)
		for _, p := range parallelisms {
			if got := JaccardJoinParallel(recs, tau, p); !equalScored(got, want) {
				t.Logf("parallelism %d, tau %v: got %v, want %v", p, tau, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteForce is the oracle's oracle: the all-pairs definition written
// out with no worker pool, naming records by position.
func bruteForce(recs []record.Record, metric similarity.Metric, tau float64) []ScoredPair {
	if metric == nil {
		metric = similarity.Jaccard
	}
	var out []ScoredPair
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if f := metric(recs[i].Text(), recs[j].Text()); f > tau {
				out = append(out, ScoredPair{Pair: record.MakePair(record.ID(i), record.ID(j)), Score: f})
			}
		}
	}
	SortScored(out)
	return out
}

// naiveJaccard is what the indexed join must return: the all-pairs scan
// under token Jaccard, less the one pair kind the two disagree on by
// design — two tokenless records score 1 under similarity.Jaccard, and
// the indexed join emits no pair without a shared token (see
// pruning.Prune).
func naiveJaccard(recs []record.Record, tau float64) []ScoredPair {
	var want []ScoredPair
	for _, sp := range bruteForce(recs, nil, tau) {
		if len(record.Tokens(recs[sp.Pair.Lo].Text())) > 0 {
			want = append(want, sp)
		}
	}
	return want
}

func TestNaiveJoinParallelMatchesSequential(t *testing.T) {
	metrics := []similarity.Metric{nil, similarity.Jaccard, similarity.Levenshtein, similarity.JaroWinkler}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, 25)
		tau := randomTau(rng)
		metric := metrics[rng.Intn(len(metrics))]
		want := bruteForce(recs, metric, tau)
		for _, p := range parallelisms {
			if got := NaiveJoinParallel(recs, metric, tau, p); !equalScored(got, want) {
				t.Logf("parallelism %d, tau %v: got %v, want %v", p, tau, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelJoinAuto exercises the auto (0) and negative settings,
// which resolve to GOMAXPROCS workers.
func TestParallelJoinAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randomRecords(rng, 60)
	want := JaccardJoin(recs, 0.3)
	for _, p := range []int{0, -1} {
		if got := JaccardJoinParallel(recs, 0.3, p); !equalScored(got, want) {
			t.Errorf("parallelism %d: got %v, want %v", p, got, want)
		}
	}
}

func TestParallelJoinEdgeCases(t *testing.T) {
	for _, p := range parallelisms {
		t.Run(fmt.Sprintf("par%d", p), func(t *testing.T) {
			if got := JaccardJoinParallel(nil, 0.3, p); got != nil {
				t.Errorf("empty input produced %v", got)
			}
			one := []record.Record{record.New(0, map[string]string{"t": "only one"})}
			if got := JaccardJoinParallel(one, 0.3, p); got != nil {
				t.Errorf("single record produced %v", got)
			}
			empties := []record.Record{
				record.New(0, nil), record.New(1, nil),
				record.New(2, map[string]string{"t": "a"}),
			}
			if got := JaccardJoinParallel(empties, 0, p); len(got) != 0 {
				t.Errorf("empty-text records paired: %v", got)
			}
			if got := NaiveJoinParallel(nil, nil, 0.3, p); got != nil {
				t.Errorf("naive empty input produced %v", got)
			}
		})
	}
}

// TestJoinHubTokenSkew checks the join against the naive scan on a
// hand-built workload with heavy token skew: one hub token shared by
// everything, so its posting list names every record and the
// first-touch bound is all that stands between the probe and n² merges.
func TestJoinHubTokenSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = "hub"
		for k := 0; k < 1+rng.Intn(5); k++ {
			texts[i] += fmt.Sprintf(" t%d", rng.Intn(30))
		}
	}
	recs := mkRecords(texts)
	want := bruteForce(recs, nil, 0.3)
	for _, p := range parallelisms {
		if got := JaccardJoinParallel(recs, 0.3, p); !equalScored(got, want) {
			t.Errorf("parallelism %d diverged (got %d pairs, want %d)", p, len(got), len(want))
		}
	}
}

// TestParallelJoinStress runs a larger join at high parallelism so the
// race detector (go test -race, wired into CI) sees real contention on
// the work queue, the shared read-only index, and the merge.
func TestParallelJoinStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(11))
	recs := make([]record.Record, 1200)
	for i := range recs {
		text := ""
		for w := 0; w < 3+rng.Intn(8); w++ {
			text += fmt.Sprintf("w%d ", rng.Intn(150))
		}
		recs[i] = record.New(record.ID(i), map[string]string{"t": text})
	}
	want := NaiveJoinParallel(recs, nil, 0.3, 2)
	if len(want) == 0 {
		t.Fatal("stress workload produced no pairs; tighten the vocabulary")
	}
	for _, p := range []int{1, 2, 8, 16} {
		if got := JaccardJoinParallel(recs, 0.3, p); !equalScored(got, want) {
			t.Errorf("parallelism %d diverged (got %d pairs, want %d)", p, len(got), len(want))
		}
	}
}

// joinTaus are the thresholds the differential tests sweep: the
// keep-any-overlap extreme, the paper's default, and thresholds close
// enough to 1 that only identical token sets pair.
var joinTaus = []float64{0, 0.3, 0.5, 0.9, 0.999}

// joinWorkers are the worker counts the differential tests run: one,
// this box's core count, and a count that divides nothing evenly.
var joinWorkers = []int{1, 2, 7}

// checkJoinMatchesNaive fails t unless the indexed join returns exactly
// the naive scan's output — pairs, bit-identical scores, order — at
// every worker count.
func checkJoinMatchesNaive(t *testing.T, recs []record.Record, tau float64) {
	t.Helper()
	want := naiveJaccard(recs, tau)
	for _, w := range joinWorkers {
		if got := JaccardJoinParallel(recs, tau, w); !equalScored(got, want) {
			t.Fatalf("tau %v, %d workers: join differs from naive scan over %d records:\n got %v\nwant %v",
				tau, w, len(recs), got, want)
		}
	}
}

// TestJoinDifferential is the seeded differential property test of the
// indexed join against the naive scan, over record shapes chosen to
// reach every branch of the probe: tokens held by (almost) every record,
// whose posting lists only the first-touch bound keeps from flooding
// the candidates; tokens repeated inside a record, which count once;
// tokenless records, which hold a position and pair with nothing;
// single-token records, whose prefix is the whole record; and records
// of very different sizes, for the length side of the bound.
func TestJoinDifferential(t *testing.T) {
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	shapes := []struct {
		name       string
		ubiquitous []string // each joins a record with probability 0.9
		repeat     bool     // draw some tokens twice
		tokenless  int      // records replaced by token-free text
		maxTokens  int      // tokens drawn per record: 1..maxTokens
	}{
		{name: "plain", maxTokens: 6},
		{name: "ubiquitous", ubiquitous: []string{"the", "of", "t0", "t1"}, maxTokens: 8},
		{name: "repeats", repeat: true, maxTokens: 6},
		{name: "tokenless", tokenless: 4, maxTokens: 4},
		{name: "single-token", maxTokens: 1},
		{name: "long-and-short", ubiquitous: []string{"the"}, maxTokens: 30},
		{name: "all", ubiquitous: []string{"the", "t0"}, repeat: true, tokenless: 3, maxTokens: 10},
	}
	for _, shape := range shapes {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(60)
			texts := make([]string, n)
			for i := range texts {
				text := ""
				for w := 0; w < 1+rng.Intn(shape.maxTokens); w++ {
					tok := vocab[rng.Intn(len(vocab))]
					text += tok + " "
					if shape.repeat && rng.Intn(3) == 0 {
						text += tok + ", " + tok + " "
					}
				}
				for _, u := range shape.ubiquitous {
					if rng.Intn(10) > 0 {
						text += u + " "
					}
				}
				texts[i] = text
			}
			for k := 0; k < shape.tokenless; k++ {
				texts[rng.Intn(n)] = []string{"", " ", "--- !"}[k%3]
			}
			for _, tau := range joinTaus {
				t.Run(fmt.Sprintf("%s/seed%d/tau%v", shape.name, seed, tau), func(t *testing.T) {
					checkJoinMatchesNaive(t, mkRecords(texts), tau)
				})
			}
		}
	}
}

// fuzzRecords decodes fuzz bytes into records over a 13-token
// vocabulary: a byte's low nibble picks a token (so repeats inside a
// record and tokens common to many records arise by themselves), 13
// gives every later record one more shared token, 14 is punctuation,
// and 15 ends the record — two in a row make a tokenless one.
func fuzzRecords(data []byte) []record.Record {
	var texts []string
	text, sticky := "", ""
	for _, b := range data {
		switch tok := b & 15; tok {
		case 15:
			texts = append(texts, text+sticky)
			text = ""
		case 14:
			text += " -- "
		case 13:
			sticky = " hub"
		default:
			text += fmt.Sprintf("w%d ", tok)
		}
	}
	texts = append(texts, text+sticky)
	if len(texts) > 64 { // keep the quadratic oracle cheap
		texts = texts[:64]
	}
	return mkRecords(texts)
}

// FuzzJoinMatchesNaive lets the fuzzer pick the records and the
// threshold: whatever it finds, the indexed join must equal the naive
// scan exactly at every worker count.
func FuzzJoinMatchesNaive(f *testing.F) {
	f.Add([]byte("\x01\x02\x03\x0f\x01\x02\x04\x0f\x0f\x0d\x05\x0f\x05\x05\x0e\x0f\x06"), uint8(1))
	f.Add([]byte("\x0d\x01\x0f\x02\x0f\x03\x0f\x01\x02\x03\x04\x05\x06\x07\x08"), uint8(0))
	f.Add([]byte("\x0f\x0f\x0f"), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, tauSel uint8) {
		checkJoinMatchesNaive(t, fuzzRecords(data), joinTaus[int(tauSel)%len(joinTaus)])
	})
}

// TestJoinScoreBitIdentical pins the claim the count-merge joins rest
// on: a score computed from an overlap count and two set sizes is the
// same float64, bit for bit, as similarity.JaccardSorted's over the
// token slices themselves.
func TestJoinScoreBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		universe := 1 + rng.Intn(40)
		draw := func() []string {
			set := map[string]struct{}{}
			for k := rng.Intn(universe + 1); k > 0; k-- {
				set[fmt.Sprintf("t%02d", rng.Intn(universe))] = struct{}{}
			}
			out := make([]string, 0, len(set))
			for tok := range set {
				out = append(out, tok)
			}
			sort.Strings(out)
			return out
		}
		a, b := draw(), draw()
		if len(a) == 0 || len(b) == 0 {
			continue // no shared token, no candidate: nothing is scored from a count
		}
		shared := int32(0)
		for _, tok := range a {
			if _, found := slices.BinarySearch(b, tok); found {
				shared++
			}
		}
		got, want := score(shared, int32(len(a)+len(b))), similarity.JaccardSorted(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sets %v and %v: score from count %v, JaccardSorted %v", a, b, got, want)
		}
	}
}

// TestJoinFunnelBound pins the join's selectivity on the shape that
// used to defeat the prefix filter: dataset.Synthetic records carry four
// near-ubiquitous tokens, one of which lands in every record's prefix,
// so every pair of records meets in a posting list. The probe must turn
// all but a few of those away before completing their overlap.
func TestJoinFunnelBound(t *testing.T) {
	d, err := dataset.Synthetic(dataset.SyntheticConfig{Records: 2000, Entities: 720, Skew: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	out := JaccardJoinParallelObs(d.Records, 0.3, 2, rec)
	counters := rec.Snapshot().Counters
	verified, emitted := counters[MetricPairsVerified], counters[MetricPairsEmitted]
	if emitted != int64(len(out)) || emitted == 0 {
		t.Fatalf("emitted counter %d, join returned %d pairs", emitted, len(out))
	}
	if verified < emitted || verified > 5*emitted {
		t.Errorf("verified %d candidates to emit %d pairs: want between 1× and 5×", verified, emitted)
	}
	t.Logf("verified %d, emitted %d (%.2f×)", verified, emitted, float64(verified)/float64(emitted))
}
