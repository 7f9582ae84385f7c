package market

import (
	"reflect"
	"testing"
	"time"

	"acd/internal/crowd"
	"acd/internal/record"
)

func TestParseFleetDefault(t *testing.T) {
	specs, err := ParseFleet(DefaultFleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("default fleet has %d backends, want 3", len(specs))
	}
	fast, careful, machine := specs[0], specs[1], specs[2]
	if fast.ID != "fast" || fast.CentsPerHIT != 1 || fast.PairsPerHIT != 20 || fast.ErrorRate != 0.12 {
		t.Errorf("fast parsed as %+v", fast)
	}
	if careful.ID != "careful" || careful.CentsPerHIT != 6 || careful.Latency != 2*time.Millisecond {
		t.Errorf("careful parsed as %+v", careful)
	}
	if machine.ID != "machine" || !machine.Machine {
		t.Errorf("machine parsed as %+v", machine)
	}
}

func TestParseFleetOptions(t *testing.T) {
	specs, err := ParseFleet("flaky:2:5:0.1:drop=0.3:fault=0.2:spike=0.4:workers=5:lat=10ms:timeout=3ms")
	if err != nil {
		t.Fatal(err)
	}
	s := specs[0]
	if s.Drop != 0.3 || s.Fault != 0.2 || s.Spike != 0.4 || s.Workers != 5 || s.Latency != 10*time.Millisecond || s.Timeout != 3*time.Millisecond {
		t.Errorf("options parsed as %+v", s)
	}
}

// TestFleetKeywordAndBudget: the two conveniences every CLI shares live
// here — "default" names the reference fleet, and a budget flag's
// "zero or negative = no cap" maps onto Config.BudgetCents' Unlimited.
func TestFleetKeywordAndBudget(t *testing.T) {
	got, err := ParseFleet(" default ")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ParseFleet(DefaultFleetSpec)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseFleet(default) = %+v, want the default fleet %+v", got, want)
	}
	if _, err := Fleet("default", func(record.Pair) float64 { return 1 }, 1); err != nil {
		t.Errorf("Fleet(default): %v", err)
	}
	for flag, want := range map[int]int{-5: Unlimited, 0: Unlimited, 1: 1, 250: 250} {
		if got := FlagBudget(flag); got != want {
			t.Errorf("FlagBudget(%d) = %d, want %d", flag, got, want)
		}
	}
}

// TestSpikeAloneWraps: spike= is a fault bit like drop= and fault= — on
// its own it still puts the backend behind the chaos and retry layers
// (the degraded-crowd scenario's one-backend fleet depends on it), and
// an error-free spec's answers are the base function's.
func TestSpikeAloneWraps(t *testing.T) {
	base := func(p record.Pair) float64 { return float64(p.Lo%10) / 10 }
	for spec, wrapped := range map[string]bool{
		"sim:2:20:0:lat=1ms:spike=0.5": true,
		"sim:2:20:0:lat=1ms":           false,
	} {
		backends, err := Fleet(spec, base, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := backends[0].Source.(*crowd.ReliableSource); ok != wrapped {
			t.Errorf("%s: source is %T, want fault wrapping = %v", spec, backends[0].Source, wrapped)
		}
		for _, p := range []record.Pair{record.MakePair(3, 4), record.MakePair(7, 9)} {
			if got := backends[0].Source.Score(p); got != base(p) {
				t.Errorf("%s: Score(%v) = %v, want the base answer %v", spec, p, got, base(p))
			}
		}
	}
}

func TestParseFleetErrors(t *testing.T) {
	bad := []string{
		"",                      // empty spec
		"a:1:2",                 // too few fields
		":1:2:0.1",              // empty id
		"a:1:2:0.1;a:1:2:0.1",   // duplicate id
		"a:x:2:0.1",             // bad cents
		"a:-1:2:0.1",            // negative cents
		"a:1:x:0.1",             // bad pairs
		"a:1:2:1.5",             // error rate out of range
		"a:1:2:0.1:drop=2",      // drop out of range
		"a:1:2:0.1:fault=x",     // bad fault
		"a:1:2:0.1:spike=1.5",   // spike out of range
		"a:1:2:0.1:workers=0",   // bad workers
		"a:1:2:0.1:lat=-1ms",    // negative latency
		"a:1:2:0.1:bogus",       // unknown option
		"a:1:2:0.1:machine=yes", // machine takes no value
	}
	for _, spec := range bad {
		if _, err := ParseFleet(spec); err == nil {
			t.Errorf("ParseFleet(%q) accepted a bad spec", spec)
		}
	}
}

func TestNoisy(t *testing.T) {
	base := func(record.Pair) float64 { return 0.8 }
	if got := Noisy(base, 0, 1)(record.MakePair(0, 1)); got != 0.8 {
		t.Errorf("zero error rate changed the answer to %v", got)
	}
	flipped := 0
	noisy := Noisy(base, 0.25, 1)
	for i := 0; i < 4000; i += 2 {
		p := record.MakePair(record.ID(i), record.ID(i+1))
		straight, complement := base(p), 1-base(p)
		switch noisy(p) {
		case straight:
		case complement:
			flipped++
		default:
			t.Fatalf("noisy answer for %v is neither base nor complement", p)
		}
		if noisy(p) != noisy(p) {
			t.Fatal("noisy answers are not stable per pair")
		}
	}
	if rate := float64(flipped) / 2000; rate < 0.2 || rate > 0.3 {
		t.Errorf("observed flip rate %v, want ≈ 0.25", rate)
	}
}

func TestPerWorkerError(t *testing.T) {
	for _, tc := range []struct {
		target  float64
		workers int
	}{{0.12, 3}, {0.02, 5}, {0.3, 3}} {
		d := perWorkerError(tc.target, tc.workers)
		got := crowd.MajorityError(d, tc.workers)
		if diff := got - tc.target; diff < -1e-6 || diff > 1e-6 {
			t.Errorf("perWorkerError(%v, %d) = %v gives majority error %v", tc.target, tc.workers, d, got)
		}
	}
	if d := perWorkerError(0.6, 3); d != 0.6 {
		t.Errorf("beyond-coin-flip target not passed through: %v", d)
	}
	if d := perWorkerError(0.1, 1); d != 0.1 {
		t.Errorf("single-worker target not passed through: %v", d)
	}
}

// TestAnswerBackend: the frozen-answer backend realizes its advertised
// error rate against ground truth, and machine specs stay source-less.
func TestAnswerBackend(t *testing.T) {
	pairs := make([]record.Pair, 4000)
	for i := range pairs {
		pairs[i] = record.MakePair(record.ID(2*i), record.ID(2*i+1))
	}
	truth := func(p record.Pair) bool { return p.Lo%4 == 0 }
	spec := BackendSpec{ID: "fast", CentsPerHIT: 1, PairsPerHIT: 20, ErrorRate: 0.12, Workers: 3}
	b := spec.AnswerBackend(pairs, truth, 9)
	if b.Source == nil {
		t.Fatal("paid AnswerBackend has no source")
	}
	wrong := 0
	for _, p := range pairs {
		if (b.Source.Score(p) > 0.5) != truth(p) {
			wrong++
		}
	}
	if rate := float64(wrong) / float64(len(pairs)); rate < 0.09 || rate > 0.15 {
		t.Errorf("realized error rate %v, want ≈ %v", rate, spec.ErrorRate)
	}

	machine := BackendSpec{ID: "m", Machine: true, ErrorRate: 0.35}
	if mb := machine.AnswerBackend(pairs, truth, 9); mb.Source != nil || !mb.Machine {
		t.Errorf("machine AnswerBackend = %+v, want nil source", mb)
	}
}

// TestFleetEndToEnd drives a parsed fleet, fault wrapping included,
// through a marketplace batch: every question gets a finite answer and
// the chaos-wrapped backend degrades via retry/fallback rather than
// wedging or dropping pairs.
func TestFleetEndToEnd(t *testing.T) {
	base := func(p record.Pair) float64 {
		if p.Hi-p.Lo == 1 {
			return 0.9
		}
		return 0.1
	}
	backends, err := Fleet("flaky:1:4:0.1:drop=0.5:fault=0.3:lat=1ms;machine:0:0:0.45:machine", base, 11)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Backends: backends, BudgetCents: Unlimited, Prior: base, MinValue: -1})
	pairs := disjointPairs(16)
	out := m.ScoreBatch(pairs)
	for i, fc := range out {
		if fc < 0 || fc > 1 {
			t.Errorf("answer %d = %v out of range", i, fc)
		}
	}
	if m.Spent() == 0 {
		t.Error("paid backend never used")
	}
	if len(m.Ledger()) != len(pairs) {
		t.Errorf("ledger holds %d pairs, want %d", len(m.Ledger()), len(pairs))
	}
}
